// Concurrent serving and the cross-query scan cache: ScanCache unit
// behavior (LRU eviction, byte budget, version invalidation), cache
// on/off parity — results and per-node actual rows identical across all
// ten optimizer modes and both engines —, invalidation on base-table
// mutation, and concurrent Run / RunProfiled (adaptive statistics on)
// against one shared Database, which is what the process-wide worker
// pool and the stats_mu_ serialization exist for. The TSan CI job runs
// this suite at 4 worker threads.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

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

exec::ScanCache::SelectionPtr MakeSel(size_t n, uint64_t start = 0) {
  auto sel = std::make_shared<std::vector<uint64_t>>();
  for (size_t i = 0; i < n; ++i) sel->push_back(start + i);
  return sel;
}

TEST(ScanCacheTest, HitMissAndVersionInvalidation) {
  exec::ScanCache cache;
  EXPECT_EQ(cache.Get("scan|T|p", 0), nullptr);  // cold
  cache.Put("scan|T|p", 0, MakeSel(5));
  auto hit = cache.Get("scan|T|p", 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 5u);
  // Same key at a newer table version: the entry is stale, dropped, and
  // reported as a miss + invalidation.
  EXPECT_EQ(cache.Get("scan|T|p", 1), nullptr);
  EXPECT_EQ(cache.Get("scan|T|p", 0), nullptr);  // really gone
  exec::ScanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.25);
}

TEST(ScanCacheTest, LruEvictionUnderByteBudget) {
  // Budget fits two ~(64 + key + 100*8)-byte entries but not three.
  exec::ScanCache cache(/*max_bytes=*/1900);
  cache.Put("a", 0, MakeSel(100));
  cache.Put("b", 0, MakeSel(100));
  EXPECT_EQ(cache.entries(), 2u);
  // Touch "a" so "b" is the least recently used entry.
  EXPECT_NE(cache.Get("a", 0), nullptr);
  cache.Put("c", 0, MakeSel(100));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get("b", 0), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Get("a", 0), nullptr);
  EXPECT_NE(cache.Get("c", 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes(), cache.max_bytes());
  // An entry larger than the entire budget is rejected outright.
  cache.Put("huge", 0, MakeSel(10000));
  EXPECT_EQ(cache.Get("huge", 0), nullptr);
  // Replacing a key keeps one entry and reclaims the old bytes.
  size_t before = cache.bytes();
  cache.Put("c", 1, MakeSel(10));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_LT(cache.bytes(), before);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
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

TEST_F(ConcurrencyTest, ConcurrentAdaptiveProfiledRuns) {
  // The previously forbidden combination: concurrent RunProfiled with
  // adaptive_stats on — GLogue refinement must serialize against every
  // in-flight optimization (Database::stats_mu_). TSan verifies the
  // absence of races; result correctness is checked against the serial
  // answer.
  plan::SpjmQuery query = FilteredQuery();
  auto serial = db_.Run(query, OptimizerMode::kRelGo, testing::OracleOptions());
  ASSERT_TRUE(serial.ok());
  auto reference = testing::SortedRows(*serial->table);

  constexpr int kClients = 4;
  constexpr int kIters = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::ExecutionOptions options =
          Options(c % 2 == 0 ? exec::EngineKind::kPipeline
                             : exec::EngineKind::kMaterialize,
                  4, true);
      options.adaptive_stats = true;
      for (int i = 0; i < kIters; ++i) {
        auto result = db_.RunProfiled(query, OptimizerMode::kRelGo, options);
        if (!result.ok() ||
            testing::SortedRows(*result->table) != reference) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
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
