// Quickstart: build the paper's running example (Fig 2) from scratch,
// declare the property graph with RGMapping, and run the SQL/PGQ query of
// Example 1 through the converged RelGo optimizer.
//
//   SELECT p2_name, place.name FROM GRAPH_TABLE (G
//     MATCH (p1:Person)-[:Likes]->(m:Message),
//           (p2:Person)-[:Likes]->(m), (p1)-[:Knows]->(p2)
//     COLUMNS (p1.name AS p1_name, p1.place_id AS p1_place_id,
//              p2.name AS p2_name)) g
//   JOIN Place p ON g.p1_place_id = p.id
//   WHERE g.p1_name = 'Tom';

#include <cstdio>

#include "core/database.h"
#include "plan/spjm_query.h"

using namespace relgo;

namespace {

Status RunQuickstart() {
  Database db;

  // --- 1. Relational tables (the four tables of Fig 2 + Place). -------------
  using storage::ColumnDef;
  using storage::Schema;
  RELGO_ASSIGN_OR_RETURN(
      auto person,
      db.CreateTable("Person",
                     Schema({ColumnDef{"person_id", LogicalType::kInt64},
                             {"name", LogicalType::kString},
                             {"place_id", LogicalType::kInt64}})));
  RELGO_ASSIGN_OR_RETURN(
      auto message,
      db.CreateTable("Message",
                     Schema({ColumnDef{"message_id", LogicalType::kInt64},
                             {"content", LogicalType::kString}})));
  RELGO_ASSIGN_OR_RETURN(
      auto likes,
      db.CreateTable("Likes",
                     Schema({ColumnDef{"likes_id", LogicalType::kInt64},
                             {"pid", LogicalType::kInt64},
                             {"mid", LogicalType::kInt64},
                             {"date", LogicalType::kDate}})));
  RELGO_ASSIGN_OR_RETURN(
      auto knows,
      db.CreateTable("Knows",
                     Schema({ColumnDef{"knows_id", LogicalType::kInt64},
                             {"pid1", LogicalType::kInt64},
                             {"pid2", LogicalType::kInt64}})));
  RELGO_ASSIGN_OR_RETURN(
      auto place, db.CreateTable(
                      "Place", Schema({ColumnDef{"id", LogicalType::kInt64},
                                       {"name", LogicalType::kString}})));

  auto d = [](const char* iso) { return Value::Date(*ParseDate(iso)); };
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(1), Value::String("Tom"), Value::Int(100)}));
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(2), Value::String("Bob"), Value::Int(200)}));
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(3), Value::String("David"), Value::Int(300)}));
  RELGO_RETURN_NOT_OK(
      message->AppendRow({Value::Int(10), Value::String("m1")}));
  RELGO_RETURN_NOT_OK(
      message->AppendRow({Value::Int(20), Value::String("m2")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(1), Value::Int(1), Value::Int(10), d("2024-03-31")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(2), Value::Int(2), Value::Int(10), d("2024-03-28")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(3), Value::Int(2), Value::Int(20), d("2024-03-20")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(4), Value::Int(3), Value::Int(20), d("2024-03-21")}));
  RELGO_RETURN_NOT_OK(
      knows->AppendRow({Value::Int(1), Value::Int(1), Value::Int(2)}));
  RELGO_RETURN_NOT_OK(
      knows->AppendRow({Value::Int(2), Value::Int(2), Value::Int(1)}));
  RELGO_RETURN_NOT_OK(
      knows->AppendRow({Value::Int(3), Value::Int(2), Value::Int(3)}));
  RELGO_RETURN_NOT_OK(
      knows->AppendRow({Value::Int(4), Value::Int(3), Value::Int(2)}));
  RELGO_RETURN_NOT_OK(
      place->AppendRow({Value::Int(100), Value::String("Germany")}));
  RELGO_RETURN_NOT_OK(
      place->AppendRow({Value::Int(200), Value::String("Denmark")}));
  RELGO_RETURN_NOT_OK(
      place->AppendRow({Value::Int(300), Value::String("China")}));

  // --- 2. RGMapping (CREATE PROPERTY GRAPH, Sec 2.1). ------------------------
  RELGO_RETURN_NOT_OK(db.AddVertexTable("Person", "person_id"));
  RELGO_RETURN_NOT_OK(db.AddVertexTable("Message", "message_id"));
  RELGO_RETURN_NOT_OK(
      db.AddEdgeTable("Likes", "Person", "pid", "Message", "mid"));
  RELGO_RETURN_NOT_OK(
      db.AddEdgeTable("Knows", "Person", "pid1", "Person", "pid2"));
  std::printf("%s\n\n", db.mapping().ToString().c_str());

  // Builds the EV/VE graph indexes, statistics, and GLogue.
  RELGO_RETURN_NOT_OK(db.Finalize());

  // --- 3. The SPJM query of Example 1. ---------------------------------------
  RELGO_ASSIGN_OR_RETURN(
      auto pattern,
      db.ParsePattern("(p1:Person)-[:Likes]->(m:Message), "
                      "(p2:Person)-[:Likes]->(m), (p1)-[:Knows]->(p2)"));
  auto query = plan::SpjmQueryBuilder("example1")
                   .Match(std::move(pattern))
                   .Column("p1", "name", "p1_name")
                   .Column("p1", "place_id", "p1_place_id")
                   .Column("p2", "name", "p2_name")
                   .Where(storage::Expr::Eq("p1_name", Value::String("Tom")))
                   .Join("Place", "place", "p1_place_id", "id")
                   .Select("p2_name")
                   .Select("place.name", "place_name")
                   .Build();

  // --- 4. Optimize + execute under both paradigms. ---------------------------
  for (auto mode : {optimizer::OptimizerMode::kRelGo,
                    optimizer::OptimizerMode::kDuckDB}) {
    RELGO_ASSIGN_OR_RETURN(auto explain, db.Explain(query, mode));
    std::printf("--- %s plan ---\n%s\n", optimizer::ModeName(mode),
                explain.c_str());
    RELGO_ASSIGN_OR_RETURN(auto result, db.Run(query, mode));
    std::printf("result (%s, opt %.2f ms, exec %.2f ms):\n%s\n",
                optimizer::ModeName(mode), result.optimization_ms,
                result.execution_ms, result.table->ToString().c_str());
  }

  // --- 4b. The same plan on the reference interpreter. -----------------------
  // ExecutionOptions select the runtime: kPipeline (the default) decomposes
  // the plan into vectorized pipelines executed by a worker pool
  // (num_threads = 0 means hardware concurrency); kMaterialize is the
  // operator-at-a-time reference interpreter the tests check it against.
  // Results are identical, row for row.
  exec::ExecutionOptions pipeline_options;
  pipeline_options.num_threads = 0;
  exec::ExecutionOptions reference_options;
  reference_options.engine = exec::EngineKind::kMaterialize;
  RELGO_ASSIGN_OR_RETURN(
      auto reference,
      db.Run(query, optimizer::OptimizerMode::kRelGo, reference_options));
  std::printf("result (RelGo on the reference interpreter, exec %.2f ms):\n"
              "%s\n",
              reference.execution_ms, reference.table->ToString().c_str());

  // --- 5. EXPLAIN ANALYZE: estimates vs actual rows per operator. ------------
  // Each operator line shows the optimizer's estimated cardinality, the
  // measured actual, their Q-error (max(est/act, act/est)), invocation
  // count and operator time; the footer aggregates Q-error plan-wide.
  RELGO_ASSIGN_OR_RETURN(
      auto analyzed,
      db.ExplainAnalyze(query, optimizer::OptimizerMode::kRelGo,
                        reference_options));
  std::printf("--- EXPLAIN ANALYZE (RelGo, materialize: tree shape) ---\n%s\n",
              analyzed.c_str());

  // On the pipeline engine the same query renders in its execution shape:
  // pipelines (source -> streaming ops -> sink), with identical actual row
  // counts per plan node (the engines are bag-equivalent). There are no
  // materializing post-op lines: join build sides appear as HASH_BUILD
  // pipelines and ORDER BY / LIMIT as TOP_K/ORDER_BY/LIMIT sinks, with
  // breaker build/sort time summarized in a "breakers:" footer.
  RELGO_ASSIGN_OR_RETURN(
      auto piped_analyzed,
      db.ExplainAnalyze(query, optimizer::OptimizerMode::kRelGo,
                        pipeline_options));
  std::printf("--- EXPLAIN ANALYZE (RelGo, pipeline shape) ---\n%s\n",
              piped_analyzed.c_str());

  // --- 6. Predicates can also be written as text. ----------------------------
  RELGO_ASSIGN_OR_RETURN(
      auto recent, db.ParsePattern("(p:Person)-[l:Likes]->(m:Message)"));
  plan::SpjmQueryBuilder recent_builder("recent_likes");
  recent_builder.Match(std::move(recent))
      .Column("p", "name")
      .Column("l", "date")
      .Where("l.date >= DATE '2024-03-28' AND p.name <> 'Tom'")
      .Select("p.name")
      .Select("l.date");
  RELGO_RETURN_NOT_OK(recent_builder.status());
  RELGO_ASSIGN_OR_RETURN(
      auto recent_result,
      db.Run(recent_builder.Build(), optimizer::OptimizerMode::kRelGo));
  std::printf("--- textual WHERE ---\n%s\n",
              recent_result.table->ToString().c_str());

  // --- 7. Adaptive statistics: the estimator learns from execution. ----------
  // With ExecutionOptions::adaptive_stats, every profiled run feeds its
  // per-operator actual cardinalities back into the optimizer's
  // statistics: GLogue pattern counts, scan selectivities and join-output
  // estimates receive bounded exponential-smoothing corrections keyed by
  // their estimator-input signatures (see src/optimizer/feedback.h), and
  // the corrections persist on the Database across queries. Re-running
  // EXPLAIN ANALYZE on the same query therefore shows the per-operator
  // Q-error footer drop — the estimate column converges onto the actual
  // column — and overlapping queries benefit from each other's runs.
  exec::ExecutionOptions adaptive;
  adaptive.adaptive_stats = true;
  RELGO_ASSIGN_OR_RETURN(
      auto first_analyzed,
      db.ExplainAnalyze(query, optimizer::OptimizerMode::kRelGo, adaptive));
  std::printf("--- EXPLAIN ANALYZE, adaptive run 1 (cold estimates) ---\n%s\n",
              first_analyzed.c_str());
  // Run 1's actuals were absorbed; run 2 re-optimizes with the corrected
  // statistics. The result table is identical — feedback only moves
  // estimates (and possibly join orders), never semantics.
  RELGO_ASSIGN_OR_RETURN(
      auto second_analyzed,
      db.ExplainAnalyze(query, optimizer::OptimizerMode::kRelGo, adaptive));
  std::printf(
      "--- EXPLAIN ANALYZE, adaptive run 2 (after feedback) ---\n%s\n"
      "(%zu correction entries live on the database now; compare the\n"
      "q-error footers above to see the estimator converge.)\n",
      second_analyzed.c_str(), db.stats_feedback().size());
  return Status::OK();
}

}  // namespace

int main() {
  Status st = RunQuickstart();
  if (!st.ok()) {
    std::fprintf(stderr, "quickstart failed: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
