// Concurrent serving and the cross-query scan cache: ScanCache unit
// behavior (LRU eviction, byte budget, version invalidation), a plain
// LIMIT that exits early still publishing its filtered scan, cache
// on/off parity — results and per-node actual rows identical across all
// ten optimizer modes and both engines —, invalidation on base-table
// mutation, and concurrent Run / RunProfiled against one shared Database
// with the plan cache on, which is what the process-wide worker pool and
// the internally synchronized caches exist for. The TSan CI job runs this
// suite at 4 worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/pipeline/batch.h"
#include "exec/scan_cache.h"
#include "fixtures.h"
#include "workload/harness.h"

namespace relgo {
namespace {

using optimizer::OptimizerMode;

/// All optimizer modes of the paper's evaluation (Sec 5.1 + ablations).
constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,       OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,    OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,    OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,  OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

exec::ExecutionOptions Options(exec::EngineKind engine, int threads,
                               bool scan_cache) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  options.scan_cache = scan_cache;
  return options;
}

// ---------------------------------------------------------------------------
// ScanCache units
// ---------------------------------------------------------------------------

exec::ScanCache::BitmapPtr MakeBitmap(size_t n) {
  return std::make_shared<std::vector<uint8_t>>(n, 1);
}

TEST(ScanCacheTest, HitMissAndVersionInvalidation) {
  exec::ScanCache cache;
  EXPECT_EQ(cache.Get("T|p", 0), nullptr);  // cold
  auto bitmap = MakeBitmap(5);
  cache.Put("T|p", 0, bitmap);
  auto hit = cache.Get("T|p", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), bitmap.get());  // shared, not copied
  EXPECT_EQ(hit->size(), 5u);
  // Same key at a newer table version: the entry is stale, dropped, and
  // reported as a miss + invalidation.
  EXPECT_EQ(cache.Get("T|p", 1), nullptr);
  EXPECT_EQ(cache.Get("T|p", 0), nullptr);  // really gone
  exec::ScanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.25);
}

TEST(ScanCacheTest, LruEvictionUnderByteBudget) {
  // Budget fits two (64 + key + 800)-byte entries but not three.
  exec::ScanCache cache(/*max_bytes=*/1900);
  cache.Put("a", 0, MakeBitmap(800));
  cache.Put("b", 0, MakeBitmap(800));
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a" so "b" is the least recently used entry.
  EXPECT_NE(cache.Get("a", 0), nullptr);
  cache.Put("c", 0, MakeBitmap(800));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get("b", 0), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Get("a", 0), nullptr);
  EXPECT_NE(cache.Get("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  // An entry larger than the entire budget is rejected outright.
  cache.Put("huge", 0, MakeBitmap(10000));
  EXPECT_EQ(cache.Get("huge", 0), nullptr);
  // Replacing a key keeps one entry and reclaims the old bytes.
  size_t before = cache.bytes();
  cache.Put("c", 1, MakeBitmap(10));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LT(cache.bytes(), before);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Early-exit scans publish
// ---------------------------------------------------------------------------

// A filter is evaluated over its whole table at Prepare, so a plain LIMIT
// that stops after the first morsel still publishes the filter's bitmap,
// and the next run replays it with the same rows.
TEST(ScanCacheEarlyExitTest, PlainLimitOverAFilteredScanPublishes) {
  constexpr int64_t kRows = 3 * exec::pipeline::kBatchRows + 100;
  Database db;
  auto person = db.CreateTable(
      "Person", storage::Schema({{"person_id", LogicalType::kInt64},
                                 {"age", LogicalType::kInt64}}));
  ASSERT_TRUE(person.ok());
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(
        (*person)->AppendRow({Value::Int(i), Value::Int(i % 10)}).ok());
  }
  ASSERT_TRUE(db.AddVertexTable("Person", "person_id").ok());
  ASSERT_TRUE(db.Finalize().ok());

  auto limit = [](std::unique_ptr<plan::PhysicalOp> child) {
    auto node = std::make_unique<plan::PhysLimit>();
    node->limit = 5;
    node->children.push_back(std::move(child));
    return node;
  };
  auto table_scan = std::make_unique<plan::PhysScanTable>();
  table_scan->table = "Person";
  table_scan->alias = "p";
  table_scan->filter = storage::Expr::Eq("age", Value::Int(3));
  table_scan->emit_rowid = true;
  auto vertex_scan = std::make_unique<plan::PhysScanVertex>();
  vertex_scan->vertex_label = db.mapping().FindVertexLabel("Person");
  vertex_scan->var = "p";
  vertex_scan->filter = storage::Expr::Eq("age", Value::Int(4));
  std::vector<std::unique_ptr<plan::PhysicalOp>> plans;
  plans.push_back(limit(std::move(table_scan)));
  plans.push_back(limit(std::move(vertex_scan)));

  // One worker claims the morsels in order, so the sink saturates in the
  // first morsel and the other three are skipped.
  exec::ExecutionOptions options =
      Options(exec::EngineKind::kPipeline, 1, /*scan_cache=*/true);
  for (const auto& plan : plans) {
    SCOPED_TRACE(plan->children[0]->Describe());
    auto reference = db.Execute(*plan, testing::OracleOptions());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    db.ClearScanCache();
    auto cold = db.Execute(*plan, options);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(db.scan_cache().entries(), 1u)
        << "the early-exit run must publish its filter";
    uint64_t hits = db.scan_cache().stats().hits;
    auto warm = db.Execute(*plan, options);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ(db.scan_cache().stats().hits, hits + 1);
    EXPECT_EQ(testing::ExactRows(**cold), testing::ExactRows(**reference));
    EXPECT_EQ(testing::ExactRows(**warm), testing::ExactRows(**reference));
  }
}

// ---------------------------------------------------------------------------
// Figure 2 database: parity, invalidation, concurrency
// ---------------------------------------------------------------------------

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// Example 1 with two cacheable filtered scans: the pushed WHERE on the
  /// Person relation (graph-agnostic modes) / Person vertex (converged
  /// modes), and a scan filter on the relationally joined Place table.
  plan::SpjmQuery FilteredQuery() const {
    auto pattern = db_.ParsePattern(
        "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
        "(p1)-[:Knows]->(p2)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("filtered")
        .Match(std::move(*pattern))
        .Column("p1", "name")
        .Column("p1", "place_id")
        .Column("p2", "name")
        .Where(storage::Expr::Eq("p1.name", Value::String("Tom")))
        .Join("Place", "place", "p1.place_id", "id",
              storage::Expr::Compare(storage::CompareOp::kNe,
                                     storage::Expr::Column("name"),
                                     storage::Expr::Constant(
                                         Value::String("Nowhere"))))
        .Select("p2.name", "name")
        .Select("place.name", "place_name")
        .Build();
  }

  /// A second mix member: triangle-ish pattern with a vertex predicate.
  plan::SpjmQuery VertexPredQuery() const {
    auto pattern = db_.ParsePattern(
        "(a:Person)-[:Knows]->(b:Person)");
    EXPECT_TRUE(pattern.ok());
    pattern->vertex(0).predicate =
        storage::Expr::Eq("name", Value::String("Bob"));
    return plan::SpjmQueryBuilder("vertex_pred")
        .Match(std::move(*pattern))
        .Column("a", "name", "a_name")
        .Column("b", "name", "b_name")
        .Select("a_name")
        .Select("b_name")
        .Build();
  }

  /// Walks `a` and `b` (same query, same mode => same deterministic plan
  /// shape) in lockstep and asserts per-node actual row counts match.
  static void ExpectSameActualRows(const plan::PhysicalOp& a,
                                   const exec::QueryProfile& pa,
                                   const plan::PhysicalOp& b,
                                   const exec::QueryProfile& pb) {
    ASSERT_EQ(a.kind, b.kind);
    const exec::OperatorProfile* oa = pa.Find(&a);
    const exec::OperatorProfile* ob = pb.Find(&b);
    ASSERT_EQ(oa == nullptr, ob == nullptr) << a.Describe();
    if (oa != nullptr) {
      EXPECT_EQ(oa->rows_out, ob->rows_out) << a.Describe();
    }
    ASSERT_EQ(a.children.size(), b.children.size());
    for (size_t i = 0; i < a.children.size(); ++i) {
      ExpectSameActualRows(*a.children[i], pa, *b.children[i], pb);
    }
  }

  Database db_;
};

TEST_F(ConcurrencyTest, CacheOnOffParityAllModesBothEngines) {
  for (plan::SpjmQuery query : {FilteredQuery(), VertexPredQuery()}) {
    for (OptimizerMode mode : kAllModes) {
      for (exec::EngineKind engine :
           {exec::EngineKind::kMaterialize, exec::EngineKind::kPipeline}) {
        SCOPED_TRACE(std::string(query.name) + " / " +
                     optimizer::ModeName(mode) + " / " +
                     (engine == exec::EngineKind::kPipeline ? "pipeline"
                                                            : "materialize"));
        db_.ClearScanCache();
        auto off = db_.RunProfiled(query, mode,
                                   Options(engine, 2, /*scan_cache=*/false));
        ASSERT_TRUE(off.ok()) << off.status().ToString();
        auto cold = db_.RunProfiled(query, mode,
                                    Options(engine, 2, /*scan_cache=*/true));
        ASSERT_TRUE(cold.ok()) << cold.status().ToString();
        auto warm = db_.RunProfiled(query, mode,
                                    Options(engine, 2, /*scan_cache=*/true));
        ASSERT_TRUE(warm.ok()) << warm.status().ToString();
        EXPECT_EQ(off->profile.scan_cache_hits(), 0u);

        // Byte-identical results: same rows in the same order.
        for (const auto* run : {&cold, &warm}) {
          const storage::Table& expect = *off->table;
          const storage::Table& got = *(*run)->table;
          ASSERT_EQ(got.num_rows(), expect.num_rows());
          ASSERT_EQ(got.num_columns(), expect.num_columns());
          for (uint64_t r = 0; r < expect.num_rows(); ++r) {
            for (size_t c = 0; c < expect.num_columns(); ++c) {
              EXPECT_EQ(got.GetValue(r, c).ToString(),
                        expect.GetValue(r, c).ToString())
                  << "row " << r << " col " << c;
            }
          }
        }
        // Per-node actual cardinalities are cache-invariant.
        ExpectSameActualRows(*off->plan, off->profile, *cold->plan,
                             cold->profile);
        ExpectSameActualRows(*off->plan, off->profile, *warm->plan,
                             warm->profile);
        // If the cold run published filtered-scan selections, the warm
        // run must have replayed at least one.
        if (db_.scan_cache().entries() > 0) {
          EXPECT_GT(warm->profile.scan_cache_hits(), 0u);
        }
      }
    }
  }
  // The grid definitely exercised the cache on some (mode, engine) cells.
  EXPECT_GT(db_.scan_cache().stats().insertions, 0u);
  EXPECT_GT(db_.scan_cache().stats().hits, 0u);
}

TEST_F(ConcurrencyTest, TableMutationInvalidatesCachedScans) {
  // Query whose Place scan filter ("name != 'Nowhere'") is cached.
  plan::SpjmQuery query = FilteredQuery();
  auto first = db_.Run(query, OptimizerMode::kDuckDB);
  ASSERT_TRUE(first.ok());
  uint64_t rows_before = first->table->num_rows();
  ASSERT_GT(db_.scan_cache().entries(), 0u);

  // Tom moves: a second Place row with his place_id and a fresh name.
  // (Place is relational-only, so the graph index is unaffected.)
  auto place = db_.catalog().GetTable("Place");
  ASSERT_TRUE(place.ok());
  ASSERT_TRUE((*place)
                  ->AppendRow({Value::Int(100), Value::String("Atlantis")})
                  .ok());

  auto second = db_.Run(query, OptimizerMode::kDuckDB);
  ASSERT_TRUE(second.ok());
  // The new Place row joins Tom's place_id, so a stale cached selection
  // (missing row 3) would lose the extra result.
  EXPECT_EQ(second->table->num_rows(), rows_before + 1);
  EXPECT_GT(db_.scan_cache().stats().invalidations, 0u);

  bool saw_atlantis = false;
  for (const std::string& row : testing::SortedRows(*second->table)) {
    if (row.find("Atlantis") != std::string::npos) saw_atlantis = true;
  }
  EXPECT_TRUE(saw_atlantis);
}

TEST_F(ConcurrencyTest, ExplainAnalyzeRendersCacheHits) {
  plan::SpjmQuery query = FilteredQuery();
  // Warm the cache, then EXPLAIN ANALYZE replays the filtered scans. The
  // reference interpreter never consults the cache, so it renders no
  // cache line.
  ASSERT_TRUE(db_.Run(query, OptimizerMode::kDuckDB).ok());
  auto analyzed = db_.ExplainAnalyze(
      query, OptimizerMode::kDuckDB,
      Options(exec::EngineKind::kPipeline, 2, true));
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("scan cache:"), std::string::npos) << *analyzed;
  auto reference = db_.ExplainAnalyze(
      query, OptimizerMode::kDuckDB,
      Options(exec::EngineKind::kMaterialize, 2, true));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(reference->find("scan cache:"), std::string::npos) << *reference;
}

TEST_F(ConcurrencyTest, ConcurrentClientsMatchSerialResults) {
  // Serial references, computed cache-cold.
  db_.ClearScanCache();
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    auto serial =
        db_.Run(q, OptimizerMode::kRelGo, testing::OracleOptions());
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }

  constexpr int kClients = 4;
  constexpr int kIters = 6;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        size_t qi = static_cast<size_t>(c + i) % mix.size();
        // Alternate engines so the shared pool serves pipeline queries
        // while materializing queries run on the same database.
        exec::EngineKind engine = (c + i) % 2 == 0
                                      ? exec::EngineKind::kPipeline
                                      : exec::EngineKind::kMaterialize;
        auto result =
            db_.Run(mix[qi], OptimizerMode::kRelGo, Options(engine, 4, true));
        if (!result.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (testing::SortedRows(*result->table) != reference[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrencyTest, ConcurrentProfiledRuns) {
  // Concurrent RunProfiled on both engines with the plan cache on: every
  // client optimizes or re-binds a shared cached plan while the others
  // execute and profile theirs. TSan verifies the absence of races;
  // results are checked against the serial answer and every lookup is
  // accounted for as exactly one hit or miss.
  plan::SpjmQuery query = FilteredQuery();
  auto serial = db_.Run(query, OptimizerMode::kRelGo, testing::OracleOptions());
  ASSERT_TRUE(serial.ok());
  auto reference = testing::SortedRows(*serial->table);

  db_.ClearPlanCache();
  optimizer::PlanCache::Stats before = db_.plan_cache().stats();
  constexpr int kClients = 4;
  constexpr int kIters = 4;
  std::atomic<int> bad{0};
  std::atomic<int> uncached{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::ExecutionOptions options =
          Options(c % 2 == 0 ? exec::EngineKind::kPipeline
                             : exec::EngineKind::kMaterialize,
                  4, true);
      options.plan_cache = true;
      for (int i = 0; i < kIters; ++i) {
        auto result = db_.RunProfiled(query, OptimizerMode::kRelGo, options);
        if (!result.ok() ||
            testing::SortedRows(*result->table) != reference) {
          bad.fetch_add(1);
          continue;
        }
        if (result->profile.plan_cache_status() ==
            exec::QueryProfile::PlanCacheStatus::kOff) {
          uncached.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(uncached.load(), 0) << "every run must consult the plan cache";
  optimizer::PlanCache::Stats after = db_.plan_cache().stats();
  EXPECT_EQ(after.Lookups() - before.Lookups(),
            static_cast<uint64_t>(kClients * kIters));
  EXPECT_GE(after.misses - before.misses, 1u);
  EXPECT_GT(after.hits - before.hits, 0u)
      << "later runs must reuse the published plan";
  EXPECT_EQ(after.invalidations, before.invalidations);
}

TEST_F(ConcurrencyTest, HarnessRunConcurrentReportsThroughputAndHits) {
  db_.ClearScanCache();
  workload::WorkloadQuery wq1{FilteredQuery(), false};
  workload::WorkloadQuery wq2{VertexPredQuery(), false};
  workload::Harness harness(
      &db_, Options(exec::EngineKind::kPipeline, 2, true));
  auto m = harness.RunConcurrent({wq1, wq2}, OptimizerMode::kRelGo,
                                 /*clients=*/3, /*queries_per_client=*/4);
  EXPECT_EQ(m.clients, 3);
  EXPECT_EQ(m.queries_ok + m.queries_failed, 12u);
  EXPECT_EQ(m.queries_failed, 0u);
  EXPECT_GT(m.qps, 0.0);
  EXPECT_GE(m.cache_hit_rate, 0.0);
  EXPECT_LE(m.cache_hit_rate, 1.0);
  // 12 runs of 2 distinct queries: far more lookups than first-misses.
  EXPECT_GT(m.scan_cache_hits, 0u);
}

}  // namespace
}  // namespace relgo
