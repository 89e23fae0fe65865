#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/naive_matcher.h"
#include "fixtures.h"
#include "optimizer/cardinality.h"
#include "optimizer/glogue.h"
#include "pattern/search_space.h"
#include "pattern/shapes.h"

namespace relgo {
namespace optimizer {
namespace {

using pattern::PatternGraph;
using plan::SpjmQueryBuilder;
using storage::Expr;

/// Builds a random two-label property graph: A-vertices, B-vertices, an
/// A->A edge relation ("aa") and an A->B edge relation ("ab"), with
/// power-law-ish degrees. Used for randomized equivalence testing.
Status BuildRandomDatabase(Database* db, uint64_t seed, int64_t a_count,
                           int64_t b_count, int64_t aa_edges,
                           int64_t ab_edges) {
  using storage::ColumnDef;
  using storage::Schema;
  Rng rng(seed);
  RELGO_ASSIGN_OR_RETURN(
      auto a, db->CreateTable("A", Schema({ColumnDef{"id", LogicalType::kInt64},
                                           {"score", LogicalType::kInt64}})));
  RELGO_ASSIGN_OR_RETURN(
      auto b, db->CreateTable("B", Schema({ColumnDef{"id", LogicalType::kInt64},
                                           {"score", LogicalType::kInt64}})));
  for (int64_t i = 0; i < a_count; ++i) {
    RELGO_RETURN_NOT_OK(
        a->AppendRow({Value::Int(i), Value::Int(rng.Uniform(0, 100))}));
  }
  for (int64_t i = 0; i < b_count; ++i) {
    RELGO_RETURN_NOT_OK(
        b->AppendRow({Value::Int(i), Value::Int(rng.Uniform(0, 100))}));
  }
  RELGO_ASSIGN_OR_RETURN(
      auto aa,
      db->CreateTable("aa", Schema({ColumnDef{"id", LogicalType::kInt64},
                                    {"src", LogicalType::kInt64},
                                    {"dst", LogicalType::kInt64}})));
  for (int64_t i = 0; i < aa_edges; ++i) {
    RELGO_RETURN_NOT_OK(aa->AppendRow(
        {Value::Int(i), Value::Int(rng.Zipf(a_count, 1.0)),
         Value::Int(rng.Uniform(0, a_count - 1))}));
  }
  RELGO_ASSIGN_OR_RETURN(
      auto ab,
      db->CreateTable("ab", Schema({ColumnDef{"id", LogicalType::kInt64},
                                    {"src", LogicalType::kInt64},
                                    {"dst", LogicalType::kInt64}})));
  for (int64_t i = 0; i < ab_edges; ++i) {
    RELGO_RETURN_NOT_OK(ab->AppendRow(
        {Value::Int(i), Value::Int(rng.Zipf(a_count, 1.0)),
         Value::Int(rng.Uniform(0, b_count - 1))}));
  }
  RELGO_RETURN_NOT_OK(db->AddVertexTable("A", "id"));
  RELGO_RETURN_NOT_OK(db->AddVertexTable("B", "id"));
  RELGO_RETURN_NOT_OK(db->AddEdgeTable("aa", "A", "src", "A", "dst"));
  RELGO_RETURN_NOT_OK(db->AddEdgeTable("ab", "A", "src", "B", "dst"));
  return db->Finalize();
}

/// Random connected pattern over the A/aa/ab schema with n_a A-vertices
/// and optionally a B-leaf. The A-vertices form a random spanning tree,
/// or (cycle4) a 4-cycle a0-a1-a2-a3 with the rest hung off it as a tree;
/// then `extra_edges` random closing edges and `parallel_edges` copies of
/// existing aa edges (same endpoints, random direction) are added.
PatternGraph RandomPattern(Rng* rng, const graph::RgMapping& mapping,
                           int n_a, bool with_b, bool cycle4,
                           int extra_edges, int parallel_edges) {
  PatternGraph p;
  int label_a = mapping.FindVertexLabel("A");
  int label_b = mapping.FindVertexLabel("B");
  int aa = mapping.FindEdgeLabel("aa");
  int ab = mapping.FindEdgeLabel("ab");
  for (int i = 0; i < n_a; ++i) {
    p.AddVertex(label_a, "a" + std::to_string(i));
  }
  auto add_aa = [&](int u, int v) {
    if (rng->Chance(0.5)) {
      p.AddEdge(aa, u, v);
    } else {
      p.AddEdge(aa, v, u);
    }
  };
  int first_tree_vertex = 1;
  if (cycle4 && n_a >= 4) {
    for (int i = 0; i < 4; ++i) add_aa(i, (i + 1) % 4);
    first_tree_vertex = 4;
  }
  for (int i = first_tree_vertex; i < n_a; ++i) {
    add_aa(static_cast<int>(rng->Uniform(0, i - 1)), i);
  }
  for (int i = 0; i < extra_edges && n_a >= 2; ++i) {
    int u = static_cast<int>(rng->Uniform(0, n_a - 1));
    int v = static_cast<int>(rng->Uniform(0, n_a - 1));
    if (u == v) continue;
    p.AddEdge(aa, u, v);
  }
  for (int i = 0; i < parallel_edges && p.num_edges() > 0; ++i) {
    const auto& e = p.edge(static_cast<int>(
        rng->Uniform(0, p.num_edges() - 1)));
    add_aa(e.src, e.dst);
  }
  if (with_b) {
    int bv = p.AddVertex(label_b, "b0");
    p.AddEdge(ab, static_cast<int>(rng->Uniform(0, n_a - 1)), bv);
  }
  return p;
}

/// Runs `p` under every optimizer mode and expects the naive matcher's
/// bag of vertex bindings from each. When `join_plans` is set, adds the
/// number of modes whose plan contains a PATTERN_JOIN.
void ExpectAllModesMatchNaiveMatcher(const Database& db,
                                     const PatternGraph& p,
                                     int* join_plans = nullptr) {
  // Oracle: the naive matcher's bag of vertex bindings.
  exec::ExecutionContext ctx(&db.catalog(), &db.mapping(), &db.index());
  auto oracle = exec::NaiveMatch(p, &ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  // Project to vertex columns only and sort.
  std::vector<std::string> oracle_rows;
  for (uint64_t r = 0; r < (*oracle)->num_rows(); ++r) {
    std::string row;
    for (int v = 0; v < p.num_vertices(); ++v) {
      row += (*oracle)->GetValue(r, v).ToString() + "|";
    }
    oracle_rows.push_back(row);
  }
  std::sort(oracle_rows.begin(), oracle_rows.end());

  // Query projecting every vertex id.
  SpjmQueryBuilder builder("rand");
  builder.Match(p);
  for (int v = 0; v < p.num_vertices(); ++v) {
    builder.Column(p.VertexVarName(v), "id");
    builder.Select(p.VertexVarName(v) + ".id");
  }
  auto query = builder.Build();

  for (auto mode :
       {OptimizerMode::kDuckDB, OptimizerMode::kGRainDB,
        OptimizerMode::kRelGo, OptimizerMode::kRelGoHash,
        OptimizerMode::kRelGoNoEI, OptimizerMode::kRelGoNoRule,
        OptimizerMode::kRelGoNoFuse, OptimizerMode::kRelGoLowOrder}) {
    if (join_plans != nullptr) {
      auto explain = db.Explain(query, mode);
      ASSERT_TRUE(explain.ok()) << explain.status().ToString();
      if (explain->find("PATTERN_JOIN") != std::string::npos) ++*join_plans;
    }
    auto result = db.Run(query, mode);
    ASSERT_TRUE(result.ok()) << ModeName(mode) << " on "
                             << p.ToString(&db.mapping()) << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->table->num_rows(), oracle_rows.size())
        << ModeName(mode) << " on " << p.ToString(&db.mapping());
    // Vertex ids equal row ids in this fixture (id column is 0..n-1),
    // so compare full tuples.
    std::vector<std::string> rows;
    for (uint64_t r = 0; r < result->table->num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < result->table->num_columns(); ++c) {
        row += result->table->GetValue(r, c).ToString() + "|";
      }
      rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, oracle_rows)
        << ModeName(mode) << " on " << p.ToString(&db.mapping());
  }
}

/// Every optimizer mode must return the naive matcher's bag of bindings.
/// Patterns of 4-6 vertices with 4-cycles and parallel edges run the graph
/// DP's join enumeration and edge-cover test on cyclic multigraphs (the
/// joins lose on cost here; GraphJoinPlanTest covers plans where one
/// wins). The fixture graph is sparse enough that the backtracking oracle
/// stays fast on them.
class RandomEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomEquivalenceTest, AllModesMatchNaiveMatcher) {
  uint64_t seed = 1000 + GetParam();
  Database db;
  ASSERT_TRUE(BuildRandomDatabase(&db, seed, 40, 20, 80, 40).ok());
  Rng rng(seed * 31);

  for (int trial = 0; trial < 4; ++trial) {
    int n = 4 + static_cast<int>(rng.Uniform(0, 2));
    bool with_b = rng.Chance(0.5);
    bool cycle4 = rng.Chance(0.5);
    int extra = static_cast<int>(rng.Uniform(0, 2));
    int parallel = static_cast<int>(rng.Uniform(0, 1));
    PatternGraph p = RandomPattern(&rng, db.mapping(), n - (with_b ? 1 : 0),
                                   with_b, cycle4, extra, parallel);
    ASSERT_TRUE(p.IsConnectedInduced(p.AllVertices()));
    if (rng.Chance(0.5)) {
      p.AddConstraint("a0",
                      Expr::Compare(storage::CompareOp::kLt,
                                    Expr::Column("score"),
                                    Expr::Constant(Value::Int(50))));
    }
    if (rng.Chance(0.3)) {
      p.AddDistinctPair(0, 1);
    }
    ExpectAllModesMatchNaiveMatcher(db, p);
  }
}

/// The graph DP prefers a binary PATTERN_JOIN only when expanding across
/// the pattern costs more than building both halves and multiplying their
/// cardinalities: here, 6-vertex paths with selective predicates at both
/// ends over a graph whose degree (10) is high for its 40 vertices. These
/// plans run the join choice and its emission against the oracle. The
/// cyclic variants are where a split can miss an edge, so they check the
/// DP's edge-cover test: without it, RelGoHash joins two arcs that leave
/// the closing edge unchecked and returns extra rows.
TEST(GraphJoinPlanTest, JoinPlansMatchNaiveMatcher) {
  Database db;
  ASSERT_TRUE(BuildRandomDatabase(&db, 1, 40, 20, 400, 40).ok());
  int label_a = db.mapping().FindVertexLabel("A");
  int aa = db.mapping().FindEdgeLabel("aa");
  int join_plans = 0;
  // Forward path; path with two reversed edges; forward path with a
  // parallel middle edge; with a chord a2->a4; closed into a 6-cycle.
  for (int variant = 0; variant < 5; ++variant) {
    PatternGraph p;
    for (int i = 0; i < 6; ++i) p.AddVertex(label_a, "a" + std::to_string(i));
    for (int i = 1; i < 6; ++i) {
      if (variant == 1 && i % 2 == 0) {
        p.AddEdge(aa, i, i - 1);
      } else {
        p.AddEdge(aa, i - 1, i);
      }
    }
    if (variant == 2) p.AddEdge(aa, 2, 3);
    if (variant == 3) p.AddEdge(aa, 2, 4);
    if (variant == 4) p.AddEdge(aa, 5, 0);
    for (const char* v : {"a0", "a1", "a4", "a5"}) {
      p.AddConstraint(v, Expr::Compare(storage::CompareOp::kLt,
                                       Expr::Column("score"),
                                       Expr::Constant(Value::Int(3))));
    }
    ExpectAllModesMatchNaiveMatcher(db, p, &join_plans);
  }
  EXPECT_GT(join_plans, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEquivalenceTest,
                         ::testing::Range(0, 8));

class GlogueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildRandomDatabase(&db_, 77, 50, 25, 200, 100).ok());
  }
  Database db_;
};

TEST_F(GlogueTest, SingleVertexAndEdgeCountsExact) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph va;
  va.AddVertex(label_a);
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(va), 50.0);
  PatternGraph ea;
  int s = ea.AddVertex(label_a);
  int t = ea.AddVertex(label_a);
  ea.AddEdge(aa, s, t);
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(ea), 200.0);
}

TEST_F(GlogueTest, WedgeCountsMatchNaiveMatcher) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  // Out-out wedge at the center.
  PatternGraph wedge;
  int c = wedge.AddVertex(label_a);
  int x = wedge.AddVertex(label_a);
  int y = wedge.AddVertex(label_a);
  wedge.AddEdge(aa, c, x);
  wedge.AddEdge(aa, c, y);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(wedge, &ctx);
  ASSERT_TRUE(oracle.ok());
  EXPECT_DOUBLE_EQ(db_.glogue().Lookup(wedge),
                   static_cast<double>((*oracle)->num_rows()));
}

TEST_F(GlogueTest, TriangleEstimateWithinSamplingError) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph tri = pattern::MakeCliquePattern(3, label_a, aa);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(tri, &ctx);
  ASSERT_TRUE(oracle.ok());
  double truth = static_cast<double>((*oracle)->num_rows());
  double estimate = db_.glogue().Lookup(tri);
  ASSERT_GE(estimate, 0.0);
  // Sampled with a generous rate on this small graph: within 3x.
  if (truth > 0) {
    EXPECT_GT(estimate, truth / 3.0);
    EXPECT_LT(estimate, truth * 3.0 + 10.0);
  }
}

TEST_F(GlogueTest, LookupRejectsOversizedPatterns) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph path = pattern::MakePathPattern(3, label_a, aa);  // 4 vertices
  EXPECT_LT(db_.glogue().Lookup(path), 0.0);
}

TEST_F(GlogueTest, CardinalityEstimatorUsesPredicates) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph p = pattern::MakePathPattern(1, label_a, aa);
  TableStats stats(&db_.catalog());
  CardinalityEstimator unfiltered(&p, &db_.glogue(), &db_.graph_stats(),
                                  &db_.mapping(), &db_.catalog(), &stats);
  double base = unfiltered.Estimate(p.AllVertices());

  PatternGraph filtered = p;
  filtered.vertex(0).predicate = Expr::Compare(
      storage::CompareOp::kLt, Expr::Column("score"),
      Expr::Constant(Value::Int(10)));
  CardinalityEstimator with_pred(&filtered, &db_.glogue(),
                                 &db_.graph_stats(), &db_.mapping(),
                                 &db_.catalog(), &stats);
  double reduced = with_pred.Estimate(filtered.AllVertices());
  EXPECT_LT(reduced, base * 0.5);
  EXPECT_GT(reduced, 0.0);
}

TEST_F(GlogueTest, HighOrderBeatsLowOrderOnTriangles) {
  int label_a = db_.mapping().FindVertexLabel("A");
  int aa = db_.mapping().FindEdgeLabel("aa");
  PatternGraph tri = pattern::MakeCliquePattern(3, label_a, aa);
  exec::ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = exec::NaiveMatch(tri, &ctx);
  ASSERT_TRUE(oracle.ok());
  double truth = std::max(1.0, static_cast<double>((*oracle)->num_rows()));

  TableStats stats(&db_.catalog());
  CardinalityEstimator high(&tri, &db_.glogue(), &db_.graph_stats(),
                            &db_.mapping(), &db_.catalog(), &stats,
                            {true, 1024});
  CardinalityEstimator low(&tri, &db_.glogue(), &db_.graph_stats(),
                           &db_.mapping(), &db_.catalog(), &stats,
                           {false, 1024});
  double err_high =
      std::abs(std::log(high.Estimate(tri.AllVertices()) / truth));
  double err_low =
      std::abs(std::log(low.Estimate(tri.AllVertices()) / truth));
  EXPECT_LE(err_high, err_low + 1e-9);
}

class StatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }
  Database db_;
};

TEST_F(StatsTest, DistinctCountsExact) {
  TableStats stats(&db_.catalog());
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Person", "person_id"), 3.0);
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Likes", "pid"), 3.0);
  EXPECT_DOUBLE_EQ(stats.DistinctCount("Likes", "mid"), 2.0);
  EXPECT_DOUBLE_EQ(stats.Cardinality("Knows"), 4.0);
  EXPECT_DOUBLE_EQ(stats.Cardinality("Ghost"), 0.0);
}

TEST_F(StatsTest, HeuristicVsSampledSelectivity) {
  TableStats stats(&db_.catalog());
  auto person = *db_.catalog().GetTable("Person");
  auto pred = Expr::Eq("name", Value::String("Tom"));
  double sampled = stats.SampledSelectivity(*person, pred, 16);
  // Exactly one of three rows matches.
  EXPECT_NEAR(sampled, 1.0 / 3.0, 0.15);
  double heuristic = stats.HeuristicSelectivity(*person, pred);
  EXPECT_GT(heuristic, 0.0);
  EXPECT_LE(heuristic, 1.0);
}

TEST_F(StatsTest, GraphOptimizerHonorsNeededEdges) {
  auto pattern = db_.ParsePattern(
      "(p:Person)-[l:Likes]->(m:Message)");
  ASSERT_TRUE(pattern.ok());
  TableStats stats(&db_.catalog());
  GraphOptimizer optimizer(&db_.mapping(), &db_.catalog(),
                           &db_.graph_stats(), &db_.glogue(), &stats);
  // With the edge needed, the plan must keep an edge binding (no fused
  // EXPAND without edge var).
  auto with_edge = optimizer.Optimize(*pattern, {0}, {});
  ASSERT_TRUE(with_edge.ok());
  std::string plan_str = plan::PrintPlan(*with_edge->root);
  EXPECT_NE(plan_str.find("[l]"), std::string::npos) << plan_str;
  // Without, the fused EXPAND drops it.
  auto without = optimizer.Optimize(*pattern, {}, {});
  ASSERT_TRUE(without.ok());
  std::string fused = plan::PrintPlan(*without->root);
  EXPECT_EQ(fused.find("[l]"), std::string::npos) << fused;
}

TEST_F(StatsTest, GraphOptimizerRejectsDisconnected) {
  pattern::PatternGraph p;
  int person = db_.mapping().FindVertexLabel("Person");
  p.AddVertex(person, "x");
  p.AddVertex(person, "y");  // no edge: disconnected
  TableStats stats(&db_.catalog());
  GraphOptimizer optimizer(&db_.mapping(), &db_.catalog(),
                           &db_.graph_stats(), &db_.glogue(), &stats);
  EXPECT_FALSE(optimizer.Optimize(p, {}, {}).ok());
}

TEST_F(StatsTest, GraphOptimizerRejectsOversizedPatternFirst) {
  // 33 vertices: past max_pattern_vertices and past VSet's 32 bits, so the
  // size check must run before anything builds a vertex mask.
  int person = db_.mapping().FindVertexLabel("Person");
  int knows = db_.mapping().FindEdgeLabel("Knows");
  PatternGraph path = pattern::MakePathPattern(32, person, knows);
  ASSERT_EQ(path.num_vertices(), 33);
  TableStats stats(&db_.catalog());
  GraphOptimizer optimizer(&db_.mapping(), &db_.catalog(),
                           &db_.graph_stats(), &db_.glogue(), &stats);
  auto result = optimizer.Optimize(path, {}, {});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
}

TEST_F(StatsTest, FlattenPatternProducesLemma1Relations) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  auto query = SpjmQueryBuilder("flat").Match(*pattern).Build();
  TableStats stats(&db_.catalog());
  RelationalOptimizer ropt(&db_.catalog(), &db_.mapping(), &stats);
  std::vector<RelNode> nodes;
  std::vector<JoinEdgeSpec> edges;
  std::vector<storage::ExprPtr> conjuncts;
  ASSERT_TRUE(ropt.FlattenPattern(query, &nodes, &edges, &conjuncts).ok());
  // Lemma 1: n = 3 vertex relations + m = 3 edge relations.
  EXPECT_EQ(nodes.size(), 6u);
  // Each edge relation contributes two EVJoins.
  EXPECT_EQ(edges.size(), 6u);
  for (const auto& e : edges) {
    EXPECT_GE(e.edge_label, 0);  // all are EVJoins, rid-join eligible
  }
}

}  // namespace
}  // namespace optimizer
}  // namespace relgo
