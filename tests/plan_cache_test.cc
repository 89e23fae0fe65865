// Parameterized queries and the cross-query plan cache. The contract
// under test: binding constants into a template and running with the
// plan cache ON is byte-identical to running with the cache OFF — over
// every LDBC/IMDB template, every optimizer mode, both engines, with
// randomized constants — because a hit runs the cached template plan
// with each call's constants bound where the engines clone its
// expressions, and the optimizer estimates slotted constants
// value-insensitively. Invalidation is
// exact, never timed: statistics are fixed after Finalize, so only a
// table append (which bumps the catalog data version) kills an entry on
// its next lookup (counted once). A cancelled, faulted, timed
// out or OOM'd query never publishes a plan. The TSan job runs this
// suite explicitly (alongside the lifecycle storm it extends).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/pipeline/engine.h"
#include "fixtures.h"
#include "optimizer/plan_cache.h"
#include "workload/harness.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace {

using exec::EngineKind;
using optimizer::OptimizerMode;
using PlanCacheStatus = exec::QueryProfile::PlanCacheStatus;

constexpr OptimizerMode kAllModes[] = {
    OptimizerMode::kDuckDB,        OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,     OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,     OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,   OptimizerMode::kRelGoNoFuse,
    OptimizerMode::kRelGoLowOrder, OptimizerMode::kGdbmsSim,
};

constexpr EngineKind kBothEngines[] = {EngineKind::kMaterialize,
                                       EngineKind::kPipeline};

const char* EngineName(EngineKind engine) {
  return engine == EngineKind::kPipeline ? "pipeline" : "materialize";
}

exec::ExecutionOptions Options(EngineKind engine, int threads = 2) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  return options;  // scan_cache and plan_cache default ON
}

/// A random constant of the same LogicalType as `v` — sometimes the
/// default itself (selective), sometimes a mutation (often selecting
/// nothing, which the differential contract must also survive).
Value RandomValueLike(const Value& v, Rng* rng) {
  switch (v.type()) {
    case LogicalType::kInt64:
      return Value::Int(v.int_value() + rng->Uniform(-3, 3));
    case LogicalType::kDouble:
      return Value::Double(v.double_value() * (0.5 + rng->NextDouble()));
    case LogicalType::kString:
      return rng->Chance(0.5) ? v : Value::String(v.string_value() + "_x");
    case LogicalType::kDate:
      return Value::Date(v.date_value() +
                         static_cast<int32_t>(rng->Uniform(-30, 30)));
    default:
      return v;
  }
}

std::vector<Value> RandomBinding(const std::vector<Value>& defaults,
                                 Rng* rng) {
  std::vector<Value> binding;
  binding.reserve(defaults.size());
  for (const Value& v : defaults) binding.push_back(RandomValueLike(v, rng));
  return binding;
}

/// EXPECT_EQ on sorted row renderings, but reporting the first divergent
/// row — the vector_kernel_test idiom, so a differential failure names
/// the exact row instead of dumping two full tables.
void ExpectSameRows(const std::vector<std::string>& expect,
                    const std::vector<std::string>& got,
                    const std::string& label) {
  ASSERT_EQ(got.size(), expect.size()) << label << ": row count diverges";
  for (size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(got[i], expect[i])
        << label << "; first divergence at row " << i;
  }
}

// ---------------------------------------------------------------------------
// Template extraction / binding / signature units (Figure 2 database)
// ---------------------------------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// Example 1 with a string constant in the WHERE clause and one in a
  /// relational join's scan filter — two parameter slots.
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
              storage::Expr::Compare(
                  storage::CompareOp::kNe, storage::Expr::Column("name"),
                  storage::Expr::Constant(Value::String("Nowhere"))))
        .Select("p2.name", "name")
        .Select("place.name", "place_name")
        .Build();
  }

  plan::SpjmQuery VertexPredQuery() const {
    auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
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

  uint64_t SnapshotCounter(const char* name) const {
    return db_.metrics().Snapshot().CounterValue(name);
  }

  Database db_;
};

TEST_F(PlanCacheTest, ParameterizeBindRoundTripsAndSharesSignature) {
  plan::SpjmQuery query = FilteredQuery();
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(query);
  // Slot order: joins' scan filters before WHERE.
  ASSERT_EQ(t.defaults.size(), 2u);
  EXPECT_EQ(t.defaults[0], Value::String("Nowhere"));
  EXPECT_EQ(t.defaults[1], Value::String("Tom"));

  // Rebinding the defaults reproduces the original query's results.
  auto bound = optimizer::BindTemplate(t, t.defaults);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto params = optimizer::CollectBoundParams(*bound);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params.at(0), Value::String("Nowhere"));
  EXPECT_EQ(params.at(1), Value::String("Tom"));
  auto original = db_.Run(query, OptimizerMode::kRelGo);
  auto rebound = db_.Run(*bound, OptimizerMode::kRelGo);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(testing::SortedRows(*rebound->table),
            testing::SortedRows(*original->table));

  // Different bindings share one signature; modes get distinct ones; the
  // bound-value-erasing signature matches the template's own.
  auto other = optimizer::BindTemplate(
      t, {Value::String("Denmark"), Value::String("Bob")});
  ASSERT_TRUE(other.ok());
  std::string sig =
      optimizer::TemplateSignature(*bound, OptimizerMode::kRelGo);
  EXPECT_EQ(optimizer::TemplateSignature(*other, OptimizerMode::kRelGo),
            sig);
  EXPECT_EQ(optimizer::TemplateSignature(t.query, OptimizerMode::kRelGo),
            sig);
  EXPECT_NE(optimizer::TemplateSignature(*bound, OptimizerMode::kDuckDB),
            sig);
  // A plain (unslotted) query value-renders its constants: two queries
  // differing only in a literal must NOT share a cache entry.
  EXPECT_NE(optimizer::TemplateSignature(query, OptimizerMode::kRelGo),
            sig);
}

TEST_F(PlanCacheTest, BindTemplateRejectsArityAndTypeMismatch) {
  optimizer::ParameterizedQuery t =
      optimizer::ParameterizeQuery(FilteredQuery());
  ASSERT_EQ(t.defaults.size(), 2u);
  EXPECT_FALSE(optimizer::BindTemplate(t, {}).ok());
  EXPECT_FALSE(
      optimizer::BindTemplate(t, {Value::String("a")}).ok());
  EXPECT_FALSE(optimizer::BindTemplate(
                   t, {Value::String("a"), Value::Int(7)})
                   .ok())
      << "Int must not bind into a string slot";
  EXPECT_TRUE(optimizer::BindTemplate(
                  t, {Value::String("a"), Value::String("b")})
                  .ok());
}

TEST_F(PlanCacheTest, LruEvictionAndStaleEntryInvalidation) {
  auto make_plan = [&] {
    auto opt = db_.Optimize(FilteredQuery(), OptimizerMode::kRelGo);
    EXPECT_TRUE(opt.ok());
    return std::shared_ptr<const plan::PhysicalOp>(std::move(opt->plan));
  };
  optimizer::PlanCache cache(2);
  cache.Put("k1", 1, make_plan());
  cache.Put("k2", 1, make_plan());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Get("k1", 1), nullptr);  // k1 now MRU
  cache.Put("k3", 1, make_plan());         // evicts k2 (LRU)
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.Get("k2", 1), nullptr);
  EXPECT_NE(cache.Get("k3", 1), nullptr);

  // A stale data version erases-and-misses, counted as an invalidation;
  // the key re-enters on the next Put.
  EXPECT_EQ(cache.Get("k1", 2), nullptr) << "data version moved";
  cache.Put("k1", 2, make_plan());
  EXPECT_NE(cache.Get("k1", 2), nullptr);
  EXPECT_EQ(cache.Get("k1", 9), nullptr) << "data version moved again";

  optimizer::PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.insertions, 4u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.invalidations, 2u);
  EXPECT_EQ(s.Lookups(), 6u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
}

// ---------------------------------------------------------------------------
// Database integration: hit/miss lifecycle, exact invalidation
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, MissThenHitBothEnginesShareOneEntry) {
  plan::SpjmQuery query = FilteredQuery();
  auto reference =
      db_.Run(query, OptimizerMode::kRelGo, Options(EngineKind::kPipeline));
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->plan_cache, PlanCacheStatus::kMiss);
  std::vector<std::string> expect = testing::SortedRows(*reference->table);

  // The plan is engine-agnostic: the materializing engine's first
  // cache-on run already hits the entry the pipeline run published.
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan_cache, PlanCacheStatus::kHit);
    EXPECT_EQ(testing::SortedRows(*result->table), expect);
  }
  EXPECT_EQ(db_.plan_cache().entries(), 1u);
  // The registry's pull collector reads the same lifetime counters.
  optimizer::PlanCache::Stats s = db_.plan_cache().stats();
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_hits_total"), s.hits);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_misses_total"), s.misses);
}

TEST_F(PlanCacheTest, OptionsOffBypassesTheCache) {
  plan::SpjmQuery query = FilteredQuery();
  exec::ExecutionOptions off = Options(EngineKind::kMaterialize);
  off.plan_cache = false;
  auto result = db_.Run(query, OptimizerMode::kRelGo, off);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan_cache, PlanCacheStatus::kOff);
  EXPECT_EQ(db_.plan_cache().stats().Lookups(), 0u);
  EXPECT_EQ(db_.plan_cache().entries(), 0u);
}

// Two double constants that "%.6g" prints alike ("200") must not share a
// cache key. Each cache is run alone: with the plan cache, the second
// query would reuse the first one's plan and constant; with the scan
// cache, the second query's Person filter would replay the first one's
// bitmap. Either way Bob (place 200) would be lost.
TEST_F(PlanCacheTest, DoubleConstantsThatPrintAlikeNeverShareACacheEntry) {
  auto query = [this](double bound) {
    auto pattern = db_.ParsePattern("(p:Person)");
    EXPECT_TRUE(pattern.ok());
    pattern->vertex(0).predicate = storage::Expr::Compare(
        storage::CompareOp::kGe, storage::Expr::Column("place_id"),
        storage::Expr::Constant(Value::Double(bound)));
    return plan::SpjmQueryBuilder("place_bound")
        .Match(std::move(*pattern))
        .Column("p", "name", "name")
        .Select("name")
        .Build();
  };
  for (bool plan_cache : {true, false}) {
    SCOPED_TRACE(plan_cache ? "plan cache" : "scan cache");
    db_.ClearPlanCache();
    db_.ClearScanCache();
    exec::ExecutionOptions options = Options(EngineKind::kPipeline);
    options.plan_cache = plan_cache;
    options.scan_cache = !plan_cache;
    auto above = db_.Run(query(200.0000001), OptimizerMode::kRelGo, options);
    ASSERT_TRUE(above.ok()) << above.status().ToString();
    EXPECT_EQ(testing::SortedRows(*above->table),
              std::vector<std::string>({"David"}));
    auto below = db_.Run(query(199.9999999), OptimizerMode::kRelGo, options);
    ASSERT_TRUE(below.ok()) << below.status().ToString();
    EXPECT_EQ(testing::SortedRows(*below->table),
              std::vector<std::string>({"Bob", "David"}));
  }
}

// A table append bumps the catalog data version; the next lookup of a hot
// template is exactly one invalidation + one re-optimization, then the
// refreshed entry serves hits again. Runs on both engines, which share
// one cache entry per template.
TEST_F(PlanCacheTest, TableAppendInvalidatesViaDataVersion) {
  plan::SpjmQuery query = FilteredQuery();
  int64_t next_place = 400;
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    exec::ExecutionOptions options = Options(engine);
    options.scan_cache = false;  // the scan cache has its own staleness story
    ASSERT_TRUE(db_.Run(query, OptimizerMode::kRelGo, options).ok());
    auto hot = db_.Run(query, OptimizerMode::kRelGo, options);
    ASSERT_TRUE(hot.ok());
    ASSERT_EQ(hot->plan_cache, PlanCacheStatus::kHit) << "template is hot";
    std::vector<std::string> expect = testing::SortedRows(*hot->table);

    // Append a Place row no existing person references: the catalog data
    // version moves, the results must not.
    auto place = db_.catalog().GetTable("Place");
    ASSERT_TRUE(place.ok());
    ASSERT_TRUE((*place)
                    ->AppendRow({Value::Int(next_place++),
                                 Value::String("Atlantis")})
                    .ok());

    optimizer::PlanCache::Stats before = db_.plan_cache().stats();
    auto reopt = db_.Run(query, OptimizerMode::kRelGo, options);
    ASSERT_TRUE(reopt.ok());
    EXPECT_EQ(reopt->plan_cache, PlanCacheStatus::kMiss)
        << "a table version bump must force re-optimization";
    EXPECT_EQ(testing::SortedRows(*reopt->table), expect);
    optimizer::PlanCache::Stats mid = db_.plan_cache().stats();
    EXPECT_EQ(mid.invalidations - before.invalidations, 1u);
    EXPECT_EQ(mid.misses - before.misses, 1u);
    EXPECT_EQ(mid.hits, before.hits);

    auto warm = db_.Run(query, OptimizerMode::kRelGo, options);
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(warm->plan_cache, PlanCacheStatus::kHit)
        << "exactly ONE re-optimization: the refreshed entry serves hits";
    EXPECT_EQ(testing::SortedRows(*warm->table), expect);
    optimizer::PlanCache::Stats after = db_.plan_cache().stats();
    EXPECT_EQ(after.misses - before.misses, 1u);
    EXPECT_EQ(after.invalidations - before.invalidations, 1u);
  }
}

// The no-publish-on-failure chokepoint, for every failure class that can
// reach execution: injected fault, timeout, OOM.
TEST_F(PlanCacheTest, FailedQueriesNeverPublishPlans) {
  plan::SpjmQuery query = FilteredQuery();
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    db_.ClearPlanCache();
    // Lifetime counter: ClearPlanCache drops entries, not accounting.
    uint64_t insertions_before = db_.plan_cache().stats().insertions;
    {
      fault::ScopedFault armed(
          {3, 1.0, 1u << static_cast<int>(fault::Site::kMorselBoundary)});
      auto result = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(fault::IsInjected(result.status()));
    }
    exec::ExecutionOptions timeout = Options(engine);
    timeout.timeout_ms = 0.0;
    EXPECT_EQ(db_.Run(query, OptimizerMode::kRelGo, timeout)
                  .status()
                  .code(),
              StatusCode::kTimeout);
    exec::ExecutionOptions oom = Options(engine);
    oom.max_total_rows = 0;
    EXPECT_EQ(
        db_.Run(query, OptimizerMode::kRelGo, oom).status().code(),
        StatusCode::kOutOfMemory);
    EXPECT_EQ(db_.plan_cache().entries(), 0u)
        << "failed queries must not publish plan-cache entries";
    EXPECT_EQ(db_.plan_cache().stats().insertions, insertions_before);

    // The same query then succeeds, publishes once, and serves hits.
    auto ok = db_.Run(query, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok->plan_cache, PlanCacheStatus::kMiss);
    EXPECT_EQ(db_.plan_cache().entries(), 1u);
  }
}

TEST_F(PlanCacheTest, HarnessHotTemplateSweepHitsEveryWarmRun) {
  std::vector<workload::WorkloadQuery> templates = {
      {FilteredQuery(), false}, {VertexPredQuery(), false}};
  workload::Harness harness(&db_, Options(EngineKind::kPipeline), 1);
  auto m = harness.RunHotTemplates(templates, OptimizerMode::kRelGo, 3);
  EXPECT_EQ(m.templates, 2);
  EXPECT_EQ(m.queries_failed, 0u);
  EXPECT_EQ(m.queries_ok, 2u + 2u * 3u);
  EXPECT_EQ(m.plan_cache_misses, 0u)
      << "after the cold pass every warm run must hit";
  EXPECT_EQ(m.plan_cache_hits, 2u * 3u);
  EXPECT_GE(m.plan_cache_hit_rate, 0.9);
}

// A hit runs the cached plan with this call's values at every site that
// binds a plan expression: the scan filter and its scan-cache key
// (FilterBitmap), a WHERE across two vertices that stays a FILTER
// (FilterOp), the reference interpreter's BindClone and the naive
// matcher (kGdbmsSim) — every mode, both engines, both caches on.
TEST_F(PlanCacheTest, AHitBindsThisCallsValuesAtEverySite) {
  auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
  ASSERT_TRUE(pattern.ok());
  pattern->vertex(0).predicate = storage::Expr::Compare(
      storage::CompareOp::kNe, storage::Expr::Column("name"),
      storage::Expr::Constant(Value::String("Tom")));
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(
      plan::SpjmQueryBuilder("knows_named")
          .Match(std::move(*pattern))
          .Column("a", "name")
          .Column("b", "name")
          .Where(storage::Expr::Or(
              storage::Expr::Eq("a.name", Value::String("David")),
              storage::Expr::Eq("b.name", Value::String("David"))))
          .Select("a.name", "a_name")
          .Select("b.name", "b_name")
          .Build());
  ASSERT_EQ(t.defaults.size(), 3u);
  auto warm = optimizer::BindTemplate(t, t.defaults);
  auto other = optimizer::BindTemplate(
      t, {Value::String("David"), Value::String("Tom"), Value::String("Tom")});
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(other.ok());

  for (OptimizerMode mode : kAllModes) {
    for (EngineKind engine : kBothEngines) {
      std::string label =
          std::string(optimizer::ModeName(mode)) + " / " + EngineName(engine);
      SCOPED_TRACE(label);
      db_.ClearPlanCache();
      db_.ClearScanCache();
      exec::ExecutionOptions off = Options(engine);
      off.plan_cache = false;
      off.scan_cache = false;
      auto expect_warm = db_.Run(*warm, mode, off);
      auto expect = db_.Run(*other, mode, off);
      ASSERT_TRUE(expect_warm.ok()) << expect_warm.status().ToString();
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      ASSERT_NE(testing::SortedRows(*expect->table),
                testing::SortedRows(*expect_warm->table))
          << "the two bindings must select different rows";

      auto first = db_.Run(*warm, mode, Options(engine));
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ASSERT_EQ(first->plan_cache, PlanCacheStatus::kMiss);
      auto hit = db_.Run(*other, mode, Options(engine));
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_EQ(hit->plan_cache, PlanCacheStatus::kHit);
      ExpectSameRows(testing::SortedRows(*expect->table),
                     testing::SortedRows(*hit->table), label);
    }
  }

  // EXPLAIN ANALYZE of the hit shows the cached template, with "$<slot>"
  // where the constants were, and this call's values in the footer.
  db_.ClearPlanCache();
  ASSERT_TRUE(db_.Run(*warm, OptimizerMode::kRelGo).ok());
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    auto text = db_.ExplainAnalyze(*other, OptimizerMode::kRelGo,
                                   Options(engine));
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(text->find("plan cache: hit\n"), std::string::npos) << *text;
    EXPECT_NE(text->find("name <> $0"), std::string::npos) << *text;
    EXPECT_NE(text->find("name = $1"), std::string::npos) << *text;
    EXPECT_NE(text->find("name = $2"), std::string::npos) << *text;
    const std::string footer =
        "\nparams: $0 = 'David', $1 = 'Tom', $2 = 'Tom'\n";
    EXPECT_NE(text->find(footer), std::string::npos) << *text;
    EXPECT_EQ(text->find("'Tom'"), text->find("$1 = 'Tom'") + 5)
        << "the plan must not show the warm-up binding's constants";
  }
}

// Slots are numbered in written order, left to right within each
// expression: a caller of BindTemplate passes values in the order the
// constants appear in the query.
TEST_F(PlanCacheTest, SlotsFollowWrittenOrderAcrossAnOr) {
  auto either = [this](const char* a, const char* b) {
    auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("either_named")
        .Match(std::move(*pattern))
        .Column("a", "name")
        .Column("b", "name")
        .Where(storage::Expr::Or(
            storage::Expr::Eq("a.name", Value::String(a)),
            storage::Expr::Eq("b.name", Value::String(b))))
        .Select("a.name", "a_name")
        .Select("b.name", "b_name")
        .Build();
  };
  optimizer::ParameterizedQuery t =
      optimizer::ParameterizeQuery(either("David", "David"));
  ASSERT_EQ(t.defaults.size(), 2u);
  auto bound = optimizer::BindTemplate(
      t, {Value::String("Tom"), Value::String("David")});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();

  exec::ExecutionOptions off = Options(EngineKind::kPipeline);
  off.plan_cache = false;
  auto expect = db_.Run(either("Tom", "David"), OptimizerMode::kRelGo, off);
  auto swapped = db_.Run(either("David", "Tom"), OptimizerMode::kRelGo, off);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  ASSERT_NE(testing::SortedRows(*expect->table),
            testing::SortedRows(*swapped->table))
      << "the two orders must select different rows";
  for (EngineKind engine : kBothEngines) {
    SCOPED_TRACE(EngineName(engine));
    auto actual = db_.Run(*bound, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectSameRows(testing::SortedRows(*expect->table),
                   testing::SortedRows(*actual->table), EngineName(engine));
    auto text =
        db_.ExplainAnalyze(*bound, OptimizerMode::kRelGo, Options(engine));
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_NE(text->find("a.name = $0 OR b.name = $1"), std::string::npos)
        << *text;
    EXPECT_NE(text->find("\nparams: $0 = 'Tom', $1 = 'David'\n"),
              std::string::npos)
        << *text;
  }
}

// ---------------------------------------------------------------------------
// The randomized differential suites: cache-on == cache-off, byte for
// byte, over every workload template x optimizer mode x engine.
// ---------------------------------------------------------------------------

void ExpectCacheOnMatchesCacheOff(
    const Database& db,
    const std::vector<workload::WorkloadQuery>& templates,
    const std::vector<OptimizerMode>& modes, uint64_t seed) {
  Rng rng(seed);
  for (const auto& wq : templates) {
    optimizer::ParameterizedQuery t =
        optimizer::ParameterizeQuery(wq.query);
    auto bound =
        optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(bound.ok())
        << wq.query.name << ": " << bound.status().ToString();
    for (OptimizerMode mode : modes) {
      for (EngineKind engine : kBothEngines) {
        std::string label = wq.query.name + std::string(" under ") +
                            optimizer::ModeName(mode) + " / " +
                            EngineName(engine);
        exec::ExecutionOptions off = Options(engine);
        off.plan_cache = false;
        auto reference = db.Run(*bound, mode, off);
        ASSERT_TRUE(reference.ok())
            << label << " (cache off): " << reference.status().ToString();
        ASSERT_EQ(reference->plan_cache, PlanCacheStatus::kOff);
        std::vector<std::string> expect =
            testing::SortedRows(*reference->table);

        // First cache-on run misses (or hits the other engine's entry);
        // the second run must hit. Both match the cache-off reference.
        for (const char* pass : {"first cache-on", "cached-plan"}) {
          auto result = db.Run(*bound, mode, Options(engine));
          ASSERT_TRUE(result.ok())
              << label << " (" << pass
              << "): " << result.status().ToString();
          ASSERT_NE(result->plan_cache, PlanCacheStatus::kOff);
          if (pass[0] == 'c') {
            ASSERT_EQ(result->plan_cache, PlanCacheStatus::kHit) << label;
          }
          ExpectSameRows(expect, testing::SortedRows(*result->table),
                         label + " (" + pass + ")");
        }
      }
    }
  }
}

class LdbcPlanCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::LdbcOptions options;
    options.scale_factor = 0.08;  // matches profile/pipeline_parity tests
    ASSERT_TRUE(GenerateLdbc(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* LdbcPlanCacheTest::db_ = nullptr;

TEST_F(LdbcPlanCacheTest, DifferentialRandomConstantsAllModesBothEngines) {
  std::vector<OptimizerMode> modes(std::begin(kAllModes),
                                   std::end(kAllModes));
  ExpectCacheOnMatchesCacheOff(
      *db_, workload::LdbcInteractiveQueries(*db_), modes, 20240808);
}

// Two different bindings of one template reuse ONE cached plan: the
// second binding's very first cache-on run is already a hit, and still
// byte-identical to its own cache-off optimization.
TEST_F(LdbcPlanCacheTest, SecondBindingHitsFirstBindingsPlan) {
  Rng rng(7);
  auto templates = workload::LdbcInteractiveQueries(*db_);
  int exercised = 0;
  for (size_t qi = 0; qi < templates.size() && exercised < 4; ++qi) {
    optimizer::ParameterizedQuery t =
        optimizer::ParameterizeQuery(templates[qi].query);
    if (t.defaults.empty()) continue;  // nothing to rebind
    ++exercised;
    SCOPED_TRACE(templates[qi].query.name);
    db_->ClearPlanCache();
    exec::ExecutionOptions on = Options(EngineKind::kPipeline);
    auto a = optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(a.ok());
    auto warm = db_->Run(*a, OptimizerMode::kRelGo, on);
    ASSERT_TRUE(warm.ok());
    ASSERT_EQ(warm->plan_cache, PlanCacheStatus::kMiss);

    auto b = optimizer::BindTemplate(t, RandomBinding(t.defaults, &rng));
    ASSERT_TRUE(b.ok());
    exec::ExecutionOptions off = on;
    off.plan_cache = false;
    auto fresh = db_->Run(*b, OptimizerMode::kRelGo, off);
    ASSERT_TRUE(fresh.ok());
    auto cached = db_->Run(*b, OptimizerMode::kRelGo, on);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached->plan_cache, PlanCacheStatus::kHit)
        << "binding B must reuse binding A's template plan";
    ExpectSameRows(testing::SortedRows(*fresh->table),
                   testing::SortedRows(*cached->table),
                   templates[qi].query.name + " binding B");
    EXPECT_EQ(db_->plan_cache().entries(), 1u);
  }
  EXPECT_GT(exercised, 0) << "LDBC templates must carry parameter slots";
}

/// `e` rebuilt with every constant equal to a key of `values` replaced by
/// its mapped value (matched by value, not by slot).
storage::ExprPtr ReplaceConstants(
    const storage::ExprPtr& e, const std::map<std::string, Value>& values) {
  using storage::Expr;
  switch (e->kind()) {
    case Expr::Kind::kConstant: {
      auto it = values.find(e->constant().ToString());
      return it == values.end() ? e->Clone() : Expr::Constant(it->second);
    }
    case Expr::Kind::kCompare: {
      auto lhs = ReplaceConstants(e->children()[0], values);
      return Expr::Compare(e->compare_op(), std::move(lhs),
                           ReplaceConstants(e->children()[1], values));
    }
    case Expr::Kind::kAnd: {
      auto lhs = ReplaceConstants(e->children()[0], values);
      return Expr::And(std::move(lhs),
                       ReplaceConstants(e->children()[1], values));
    }
    default:
      return e->Clone();
  }
}

TEST_F(LdbcPlanCacheTest, IC3DateWindowSlotsFollowWrittenOrder) {
  auto templates = workload::LdbcInteractiveQueries(*db_);
  const workload::WorkloadQuery* ic = nullptr;
  for (const workload::WorkloadQuery& wq : templates) {
    if (wq.query.name == "IC3-2") ic = &wq;
  }
  ASSERT_NE(ic, nullptr);
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(ic->query);
  // WHERE p.firstName = $0 AND country.name = $1 AND po.creationDate >= $2
  // AND po.creationDate <= $3, in written order.
  ASSERT_EQ(t.defaults.size(), 4u);
  EXPECT_EQ(t.defaults[0].ToString(), "Jose");
  EXPECT_EQ(t.defaults[1].ToString(), "country_3");
  EXPECT_EQ(t.defaults[2].ToString(), "2011-01-01");
  EXPECT_EQ(t.defaults[3].ToString(), "2012-12-31");

  // A narrower window, bound in written order, must select what the same
  // query written with those dates selects.
  std::vector<Value> params = t.defaults;
  params[2] = Value::Date(*ParseDate("2011-06-01"));
  params[3] = Value::Date(*ParseDate("2012-06-30"));
  auto bound = optimizer::BindTemplate(t, params);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  plan::SpjmQuery written = ic->query;
  ASSERT_NE(written.where, nullptr);
  written.where = ReplaceConstants(
      written.where,
      {{"2011-01-01", params[2]}, {"2012-12-31", params[3]}});

  exec::ExecutionOptions on = Options(EngineKind::kPipeline, 1);
  exec::ExecutionOptions off = on;
  off.plan_cache = false;
  auto expect = db_->Run(written, OptimizerMode::kRelGo, off);
  auto wide = db_->Run(ic->query, OptimizerMode::kRelGo, off);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_NE(testing::ExactRows(*expect->table),
            testing::ExactRows(*wide->table))
      << "the narrower window must change the result";
  db_->ClearPlanCache();
  auto warm = optimizer::BindTemplate(t, t.defaults);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(db_->Run(*warm, OptimizerMode::kRelGo, on).ok());
  auto actual = db_->Run(*bound, OptimizerMode::kRelGo, on);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  EXPECT_EQ(actual->plan_cache, PlanCacheStatus::kHit);
  EXPECT_EQ(testing::ExactRows(*actual->table),
            testing::ExactRows(*expect->table));

  auto text = db_->ExplainAnalyze(*bound, OptimizerMode::kRelGo, on);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("creationDate >= $2 AND creationDate <= $3"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("\nparams: $0 = 'Jose', $1 = 'country_3', "
                       "$2 = 2011-06-01, $3 = 2012-06-30\n"),
            std::string::npos)
      << *text;
}

// Six bindings of one LDBC template share the plan the warm-up call
// published: 4 clients run them concurrently through RunProfiled with both
// caches on, and every call is a hit on that very plan object whose rows
// equal the binding's caches-off run, row for row. Under TSan this is the
// interleaving of concurrent executions reading one cached plan tree.
TEST_F(LdbcPlanCacheTest, ConcurrentBindingsShareTheWarmUpPlan) {
  auto templates = workload::LdbcInteractiveQueries(*db_);
  const workload::WorkloadQuery* ic = nullptr;
  for (const workload::WorkloadQuery& wq : templates) {
    if (wq.query.name == "IC1-2") ic = &wq;
  }
  ASSERT_NE(ic, nullptr);
  optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(ic->query);

  // The six most frequent first names (ties by name) replace the
  // template's own.
  auto person = db_->catalog().GetTable("Person");
  ASSERT_TRUE(person.ok());
  const storage::Column* first = (*person)->FindColumn("firstName");
  ASSERT_NE(first, nullptr);
  std::map<std::string, int64_t> counts;
  for (uint64_t row = 0; row < (*person)->num_rows(); ++row) {
    ++counts[first->GetValue(row).string_value()];
  }
  std::vector<std::pair<int64_t, std::string>> by_count;
  for (const auto& [name, count] : counts) by_count.emplace_back(-count, name);
  std::sort(by_count.begin(), by_count.end());
  ASSERT_GE(by_count.size(), 6u);
  std::vector<plan::SpjmQuery> bindings;
  for (size_t i = 0; i < 6; ++i) {
    std::vector<Value> params = t.defaults;
    for (Value& v : params) {
      if (v.type() == LogicalType::kString && v.string_value() == "Jose") {
        v = Value::String(by_count[i].second);
      }
    }
    auto bound = optimizer::BindTemplate(t, params);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    bindings.push_back(std::move(*bound));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::ExecutionOptions on = Options(EngineKind::kPipeline, threads);
    exec::ExecutionOptions off = on;
    off.plan_cache = false;
    off.scan_cache = false;
    std::vector<std::vector<std::string>> expect;
    for (const plan::SpjmQuery& q : bindings) {
      auto reference = db_->Run(q, OptimizerMode::kRelGo, off);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      expect.push_back(testing::ExactRows(*reference->table));
    }
    std::set<std::vector<std::string>> distinct(expect.begin(), expect.end());
    ASSERT_GT(distinct.size(), 1u)
        << "the bindings must select different rows";

    db_->ClearPlanCache();
    db_->ClearScanCache();
    auto warm = db_->RunProfiled(bindings[0], OptimizerMode::kRelGo, on);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_EQ(warm->profile.plan_cache_status(), PlanCacheStatus::kMiss);
    const plan::PhysicalOp* shared = warm->plan.get();
    optimizer::PlanCache::Stats before = db_->plan_cache().stats();

    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t i = 0; i < bindings.size(); ++i) {
          size_t b = (c + i) % bindings.size();
          auto result =
              db_->RunProfiled(bindings[b], OptimizerMode::kRelGo, on);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(result->profile.plan_cache_status(),
                    PlanCacheStatus::kHit);
          EXPECT_EQ(result->plan.get(), shared)
              << "a hit must run the warm-up's plan object";
          ExpectSameRows(expect[b], testing::ExactRows(*result->table),
                         "binding " + std::to_string(b));
        }
      });
    }
    for (auto& client : clients) client.join();
    optimizer::PlanCache::Stats after = db_->plan_cache().stats();
    EXPECT_EQ(after.hits - before.hits, kClients * bindings.size());
    EXPECT_EQ(after.misses, before.misses);
  }
}

class ImdbPlanCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    workload::ImdbOptions options;
    options.scale_factor = 0.04;  // matches profile/pipeline_parity tests
    ASSERT_TRUE(GenerateImdb(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* ImdbPlanCacheTest::db_ = nullptr;

TEST_F(ImdbPlanCacheTest, DifferentialRandomConstantsBothEngines) {
  // kRelGoNoRule / kGdbmsSim excluded like profile_test and
  // pipeline_parity_test (legitimate OOM / naive-matcher runtime on JOB).
  std::vector<OptimizerMode> modes = {
      OptimizerMode::kDuckDB,      OptimizerMode::kGRainDB,
      OptimizerMode::kUmbraLike,   OptimizerMode::kRelGo,
      OptimizerMode::kRelGoHash,   OptimizerMode::kRelGoNoEI,
      OptimizerMode::kRelGoNoFuse, OptimizerMode::kRelGoLowOrder,
  };
  ExpectCacheOnMatchesCacheOff(*db_, workload::JobQueries(*db_), modes,
                               20240809);
}

// ---------------------------------------------------------------------------
// The chaos storm, plan cache ON: the PR 8 lifecycle storm extended with
// hot templates — concurrent clients under cancels, faults and tight
// timeouts keep hammering two templates through the plan cache, and the
// storm must stay bit-identical to the serial cache-off reference.
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, ChaosStormStaysBitIdenticalToSerialCacheOff) {
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    exec::ExecutionOptions off = Options(EngineKind::kMaterialize);
    off.plan_cache = false;
    auto serial = db_.Run(q, OptimizerMode::kRelGo, off);
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }
  ASSERT_EQ(db_.plan_cache().stats().Lookups(), 0u);

  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 2;
  admission.max_queued = 2;
  admission.max_wait_ms = 50;
  db_.worker_pool().SetAdmission(admission);
  fault::ScopedFault armed({2025, 0.02, 0xFFFFFFFFu});

  constexpr int kClients = 4;
  constexpr int kIters = 25;
  std::atomic<uint64_t> ok{0}, shed{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(3000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIters; ++i) {
        const plan::SpjmQuery& query = mix[(c + i) % mix.size()];
        EngineKind engine = (c + i) % 2 == 0 ? EngineKind::kPipeline
                                             : EngineKind::kMaterialize;
        exec::ExecutionOptions options = Options(engine);
        bool chaos_cancel = rng.Chance(0.2);
        if (rng.Chance(0.1)) options.timeout_ms = 0.0;
        std::atomic<uint64_t> query_id{0};
        std::atomic<bool> done{false};
        std::thread controller;
        if (chaos_cancel) {
          options.query_id_out = &query_id;
          controller = std::thread([&] {
            uint64_t id = 0;
            while ((id = query_id.load(std::memory_order_acquire)) == 0) {
              if (done.load(std::memory_order_acquire)) return;
              std::this_thread::yield();
            }
            db_.CancelQuery(id);
          });
        }
        auto result = db_.Run(query, OptimizerMode::kRelGo, options);
        if (chaos_cancel) {
          done.store(true, std::memory_order_release);
          controller.join();
        }
        if (result.ok()) {
          ok.fetch_add(1);
        } else if (result.status().code() == StatusCode::kCancelled ||
                   result.status().code() == StatusCode::kTimeout ||
                   result.status().code() ==
                       StatusCode::kResourceExhausted ||
                   fault::IsInjected(result.status())) {
          shed.fetch_add(1);
        } else {
          unexpected.fetch_add(1);
          ADD_FAILURE() << "unexpected terminal status: "
                        << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load() + shed.load() + unexpected.load(),
            static_cast<uint64_t>(kClients) * kIters);
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GT(ok.load(), 0u) << "storm must make progress";

  // Cache accounting reconciles: lookups add up, plans were only ever
  // published by successful queries (insertions never exceed misses, and
  // the storm's two kRelGo templates bound the entry count), and the
  // pull-collector metrics read the same lifetime counters.
  optimizer::PlanCache::Stats s = db_.plan_cache().stats();
  EXPECT_EQ(s.Lookups(), s.hits + s.misses);
  EXPECT_GT(s.hits, 0u) << "hot templates must hit under the storm";
  EXPECT_LE(s.insertions, s.misses);
  EXPECT_LE(db_.plan_cache().entries(), mix.size());
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_hits_total"), s.hits);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_misses_total"), s.misses);
  EXPECT_EQ(SnapshotCounter("relgo_plan_cache_insertions_total"),
            s.insertions);

  // Post-storm parity: whatever the storm cached replays bit-identical
  // to the pre-storm serial cache-off reference on both engines.
  db_.worker_pool().SetAdmission({});
  fault::Disarm();
  for (size_t qi = 0; qi < mix.size(); ++qi) {
    for (EngineKind engine : kBothEngines) {
      auto result =
          db_.Run(mix[qi], OptimizerMode::kRelGo, Options(engine));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ExpectSameRows(reference[qi], testing::SortedRows(*result->table),
                     std::string("post-storm ") + EngineName(engine) +
                         " query " + std::to_string(qi));
    }
  }
}

}  // namespace
}  // namespace relgo
