// Observability subsystem (src/obs/ + Database wiring): histogram bucket
// math and percentile exactness on known distributions, snapshot merge
// associativity, sharded-counter exactness under threads, the pull-
// collector no-drift property for the scan cache, Chrome trace-event JSON
// well-formedness, the slow-query-log threshold, metrics-on/off result
// parity across all ten optimizer modes and both engines, and a
// multi-client storm with metrics + tracing ON (the TSan CI job runs this
// suite to prove the instrumentation adds no races to PR 5's concurrent
// serving).

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

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

exec::ExecutionOptions Options(exec::EngineKind engine, int threads) {
  exec::ExecutionOptions options;
  options.engine = engine;
  options.num_threads = threads;
  return options;
}

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramMathTest, BucketBoundariesRoundTripExactly) {
  for (int i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(obs::BucketIndexForMs(obs::BucketUpperMs(i)), i) << i;
  }
  // Upper bounds strictly increase.
  for (int i = 1; i < obs::kHistogramBuckets; ++i) {
    EXPECT_GT(obs::BucketUpperMs(i), obs::BucketUpperMs(i - 1));
  }
  // Just past a bound spills into the next bucket.
  EXPECT_EQ(obs::BucketIndexForMs(obs::BucketUpperMs(10) * 1.01), 11);
  // Non-positive (and sub-first-bound) values land in bucket 0.
  EXPECT_EQ(obs::BucketIndexForMs(0.0), 0);
  EXPECT_EQ(obs::BucketIndexForMs(-5.0), 0);
  EXPECT_EQ(obs::BucketIndexForMs(1e-9), 0);
  // Far past the last bound: the overflow bucket.
  EXPECT_EQ(obs::BucketIndexForMs(1e18), obs::kHistogramBuckets);
  // The last finite bound comfortably exceeds the repo's largest timeout
  // (10 minutes in the paper's protocol).
  EXPECT_GT(obs::BucketUpperMs(obs::kHistogramBuckets - 1), 600'000.0);
}

TEST(HistogramMathTest, PercentilesExactOnBucketBoundaryDistribution) {
  // Values that are exact bucket bounds have exact percentiles: 50 samples
  // at bound 10, 45 at bound 20, 5 at bound 30.
  const double lo = obs::BucketUpperMs(10);
  const double mid = obs::BucketUpperMs(20);
  const double hi = obs::BucketUpperMs(30);
  obs::Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(lo);
  for (int i = 0; i < 45; ++i) h.Record(mid);
  for (int i = 0; i < 5; ++i) h.Record(hi);
  obs::HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.50), lo);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.95), mid);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), hi);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.00), hi);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), lo);  // rank clamps to 1
  EXPECT_NEAR(snap.MeanMs(), (50 * lo + 45 * mid + 5 * hi) / 100.0,
              1e-12);
  // Empty histogram: all percentiles are 0.
  EXPECT_DOUBLE_EQ(obs::HistogramSnapshot{}.Percentile(0.99), 0.0);
}

TEST(HistogramMathTest, PercentileErrorBoundedByBucketGrowth) {
  // Arbitrary (non-boundary) values: the reported percentile is the
  // bucket's upper bound, at most one growth factor (2^(1/4), ~19%)
  // above the true value and never below it.
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(0.137 * i);
  obs::HistogramSnapshot snap = h.Snapshot();
  const double true_p95 = 0.137 * 950;
  double reported = snap.Percentile(0.95);
  EXPECT_GE(reported, true_p95);
  EXPECT_LE(reported, true_p95 * 1.19);
}

TEST(HistogramMathTest, SnapshotMergeIsAssociativeAndCommutative) {
  auto make = [](double v, int n, uint64_t c) {
    obs::MetricsSnapshot s;
    s.counters["queries"] = c;
    s.gauges["depth"] = static_cast<int64_t>(n);
    obs::Histogram h;
    for (int i = 0; i < n; ++i) h.Record(v);
    s.histograms["lat"] = h.Snapshot();
    return s;
  };
  // Exactly representable values keep double addition associative, so
  // the comparison below can be exact.
  obs::MetricsSnapshot a = make(1.0, 3, 7);
  obs::MetricsSnapshot b = make(2.0, 5, 11);
  obs::MetricsSnapshot c = make(4.0, 2, 13);

  obs::MetricsSnapshot ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  obs::MetricsSnapshot bc = b;  // a + (b + c)
  bc.Merge(c);
  obs::MetricsSnapshot a_bc = a;
  a_bc.Merge(bc);
  obs::MetricsSnapshot cba = c;  // commuted order
  cba.Merge(b);
  cba.Merge(a);

  for (const obs::MetricsSnapshot* other : {&a_bc, &cba}) {
    EXPECT_EQ(ab_c.CounterValue("queries"), other->CounterValue("queries"));
    EXPECT_EQ(ab_c.GaugeValue("depth"), other->GaugeValue("depth"));
    const obs::HistogramSnapshot* ha = ab_c.FindHistogram("lat");
    const obs::HistogramSnapshot* hb = other->FindHistogram("lat");
    ASSERT_NE(ha, nullptr);
    ASSERT_NE(hb, nullptr);
    EXPECT_EQ(ha->count, hb->count);
    EXPECT_DOUBLE_EQ(ha->sum_ms, hb->sum_ms);
    EXPECT_EQ(ha->buckets, hb->buckets);
  }
  EXPECT_EQ(ab_c.CounterValue("queries"), 7u + 11u + 13u);
  EXPECT_EQ(ab_c.FindHistogram("lat")->count, 10u);
}

TEST(PercentileOfSortedTest, NearestRankIsExact) {
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted({}, 0.5), 0.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(v, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(v, 1.00), 100.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted({42.0}, 0.5), 42.0);
}

TEST(CounterTest, ShardedCountsAreExactUnderThreads) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(RegistryTest, RenderTextExposesAllKinds) {
  obs::MetricsRegistry registry;
  registry.GetCounter("relgo_test_total").Add(5);
  registry.GetGauge("relgo_test_depth").Set(-3);
  registry.GetHistogram("relgo_test_ms").Record(obs::BucketUpperMs(4));
  registry.AddCollector([](obs::MetricsSnapshot* out) {
    out->counters["relgo_pulled_total"] += 9;
  });
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE relgo_test_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("relgo_test_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("relgo_test_depth -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE relgo_test_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("relgo_test_ms_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("relgo_test_ms_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("relgo_pulled_total 9\n"), std::string::npos);
  // Stable addresses: the same name resolves to the same metric.
  EXPECT_EQ(&registry.GetCounter("relgo_test_total"),
            &registry.GetCounter("relgo_test_total"));
}

// ---------------------------------------------------------------------------
// Minimal JSON validator (enough for trace-event output)
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') return ++pos_, true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* word) {
    size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Database wiring (Figure 2 fixture)
// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  plan::SpjmQuery TriangleQuery() const {
    auto pattern = db_.ParsePattern(
        "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
        "(p1)-[:Knows]->(p2)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("triangle")
        .Match(std::move(*pattern))
        .Column("p1", "name")
        .Column("p2", "name")
        .Where(storage::Expr::Eq("p1.name", Value::String("Tom")))
        .Select("p2.name", "name")
        .Build();
  }

  plan::SpjmQuery TwoHopQuery() const {
    auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("two_hop")
        .Match(std::move(*pattern))
        .Column("a", "name", "a_name")
        .Column("b", "name", "b_name")
        .Select("a_name")
        .Select("b_name")
        .Build();
  }

  Database db_;
};

TEST_F(ObsTest, QueryCountersAndLatencyHistograms) {
  obs::MetricsSnapshot before = db_.metrics().Snapshot();
  constexpr int kRuns = 5;
  for (int i = 0; i < kRuns; ++i) {
    auto result = db_.Run(TriangleQuery(), OptimizerMode::kRelGo,
                          Options(exec::EngineKind::kPipeline, 2));
    ASSERT_TRUE(result.ok());
  }
  obs::MetricsSnapshot after = db_.metrics().Snapshot();
  EXPECT_EQ(after.CounterValue("relgo_queries_total") -
                before.CounterValue("relgo_queries_total"),
            static_cast<uint64_t>(kRuns));
  EXPECT_EQ(after.CounterValue("relgo_query_failures_total"),
            before.CounterValue("relgo_query_failures_total"));
  const obs::HistogramSnapshot* exec_h =
      after.FindHistogram("relgo_query_execution_ms");
  const obs::HistogramSnapshot* opt_h =
      after.FindHistogram("relgo_query_optimization_ms");
  ASSERT_NE(exec_h, nullptr);
  ASSERT_NE(opt_h, nullptr);
  EXPECT_EQ(exec_h->count, static_cast<uint64_t>(kRuns));
  EXPECT_EQ(opt_h->count, static_cast<uint64_t>(kRuns));
  EXPECT_GT(exec_h->Percentile(0.99), 0.0);
  // The registry's text exposition carries the query metrics.
  std::string text = db_.metrics().RenderText();
  EXPECT_NE(text.find("relgo_queries_total"), std::string::npos);
  EXPECT_NE(text.find("relgo_query_execution_ms_bucket"),
            std::string::npos);
}

TEST_F(ObsTest, FailedQueriesCountAsFailures) {
  Database unfinalized;
  auto result = unfinalized.Run(TriangleQuery(), OptimizerMode::kRelGo);
  ASSERT_FALSE(result.ok());
  obs::MetricsSnapshot snap = unfinalized.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("relgo_queries_total"), 1u);
  EXPECT_EQ(snap.CounterValue("relgo_query_failures_total"), 1u);
}

TEST_F(ObsTest, MetricsOptOutRecordsNothing) {
  obs::MetricsSnapshot before = db_.metrics().Snapshot();
  exec::ExecutionOptions options = Options(exec::EngineKind::kPipeline, 2);
  options.metrics = false;
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo, options).ok());
  obs::MetricsSnapshot after = db_.metrics().Snapshot();
  EXPECT_EQ(after.CounterValue("relgo_queries_total"),
            before.CounterValue("relgo_queries_total"));
  EXPECT_EQ(after.FindHistogram("relgo_query_execution_ms")->count,
            before.FindHistogram("relgo_query_execution_ms")->count);
}

TEST_F(ObsTest, SchedulerMetricsCountJobsAndTasks) {
  obs::MetricsSnapshot before = db_.metrics().Snapshot();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo,
                        Options(exec::EngineKind::kPipeline, 2))
                    .ok());
  }
  obs::MetricsSnapshot after = db_.metrics().Snapshot();
  // Every pipeline ran some morsels. On the tiny Figure 2 tables the
  // scheduler's inline fast path usually claims them (too little work to
  // wake the pool), so assert on tasks and the jobs *sum* — not on
  // pool-path jobs specifically.
  EXPECT_GT(after.CounterValue("relgo_pool_tasks_total"),
            before.CounterValue("relgo_pool_tasks_total"));
  EXPECT_GT(after.CounterValue("relgo_pool_inline_jobs_total") +
                after.CounterValue("relgo_pool_jobs_total"),
            before.CounterValue("relgo_pool_inline_jobs_total") +
                before.CounterValue("relgo_pool_jobs_total"));
  EXPECT_GE(after.GaugeValue("relgo_pool_queue_depth"), 0);
}

TEST_F(ObsTest, ScanCacheCollectorNeverDrifts) {
  // Warm the cache, then check the registry snapshot reports *exactly*
  // the cache's own lifetime counters — the registry pulls at snapshot
  // time instead of mirroring events, so drift is impossible by
  // construction; this pins the wiring.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo).ok());
    ASSERT_TRUE(db_.Run(TwoHopQuery(), OptimizerMode::kDuckDB).ok());
  }
  exec::ScanCache::Stats stats = db_.scan_cache().stats();
  obs::MetricsSnapshot snap = db_.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("relgo_scan_cache_hits_total"), stats.hits);
  EXPECT_EQ(snap.CounterValue("relgo_scan_cache_misses_total"),
            stats.misses);
  EXPECT_EQ(snap.CounterValue("relgo_scan_cache_insertions_total"),
            stats.insertions);
  EXPECT_EQ(snap.CounterValue("relgo_scan_cache_evictions_total"),
            stats.evictions);
  EXPECT_EQ(snap.CounterValue("relgo_scan_cache_invalidations_total"),
            stats.invalidations);
  EXPECT_EQ(snap.GaugeValue("relgo_scan_cache_entries"),
            static_cast<int64_t>(db_.scan_cache().entries()));
  EXPECT_GT(stats.hits, 0u);  // the loop really exercised the cache
  EXPECT_NE(db_.metrics().RenderText().find("relgo_scan_cache_hits_total"),
            std::string::npos);
}

TEST_F(ObsTest, TraceJsonIsWellFormedAndComplete) {
  db_.SetTracing(true);
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo,
                      Options(exec::EngineKind::kPipeline, 2))
                  .ok());
  ASSERT_TRUE(db_.Run(TwoHopQuery(), OptimizerMode::kDuckDB,
                      Options(exec::EngineKind::kMaterialize, 1))
                  .ok());
  ASSERT_TRUE(db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)").ok());
  db_.SetTracing(false);
  ASSERT_GT(db_.trace_sink().size(), 0u);

  std::string json = db_.DumpTraceJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;

  // The lifecycle spans are all present...
  for (const char* name :
       {"optimize", "execute", "pipeline_build", "pipeline_run",
        "sink_finish", "parse", "thread_name"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + name + "\""),
              std::string::npos)
        << name;
  }
  // ...the query track is labeled, and span args carry worker counts.
  EXPECT_NE(json.find("triangle [RelGo]"), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  // Every complete event carries ts and dur (events are one line each).
  std::istringstream lines(json);
  std::string line;
  int complete_events = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    ++complete_events;
    EXPECT_NE(line.find("\"ts\": "), std::string::npos) << line;
    EXPECT_NE(line.find("\"dur\": "), std::string::npos) << line;
  }
  EXPECT_GT(complete_events, 0);
  // The wall-clock anchor is stamped exactly once, at export time.
  EXPECT_NE(json.find("exported_unix_ms"), std::string::npos);

  // DumpTrace writes the same JSON to a file.
  std::string path = ::testing::TempDir() + "relgo_obs_trace.json";
  ASSERT_TRUE(db_.DumpTrace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(static_cast<size_t>(size), json.size());
}

TEST_F(ObsTest, TracingIsOffByDefaultAndPerQueryOptIn) {
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo).ok());
  EXPECT_EQ(db_.trace_sink().size(), 0u);
  // Per-query opt-in records even while the sink-level switch is off.
  exec::ExecutionOptions options = Options(exec::EngineKind::kPipeline, 2);
  options.trace = true;
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo, options).ok());
  EXPECT_GT(db_.trace_sink().size(), 0u);
  db_.trace_sink().Clear();
  EXPECT_EQ(db_.trace_sink().size(), 0u);
}

TEST_F(ObsTest, SlowQueryLogHonorsThreshold) {
  // Threshold unset (0): nothing is logged.
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo).ok());
  EXPECT_EQ(db_.slow_query_log().total(), 0u);

  // A threshold below any real query time: every query is logged, with
  // the structured fields present.
  exec::ExecutionOptions catch_all = Options(exec::EngineKind::kPipeline, 2);
  catch_all.slow_query_ms = 1e-6;
  ASSERT_TRUE(
      db_.Run(TriangleQuery(), OptimizerMode::kRelGo, catch_all).ok());
  ASSERT_EQ(db_.slow_query_log().total(), 1u);
  std::vector<std::string> records = db_.slow_query_log().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].find("slow_query query=triangle"),
            std::string::npos)
      << records[0];
  EXPECT_NE(records[0].find("mode=RelGo"), std::string::npos);
  EXPECT_NE(records[0].find("engine=pipeline"), std::string::npos);
  EXPECT_NE(records[0].find("status=ok"), std::string::npos);
  EXPECT_NE(records[0].find("exec_ms="), std::string::npos);

  // A threshold far above any real query time: back to silence.
  exec::ExecutionOptions lenient = Options(exec::EngineKind::kPipeline, 2);
  lenient.slow_query_ms = 1e9;
  ASSERT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo, lenient).ok());
  EXPECT_EQ(db_.slow_query_log().total(), 1u);

  db_.slow_query_log().Clear();
  EXPECT_TRUE(db_.slow_query_log().records().empty());
}

TEST_F(ObsTest, MetricsOffParityAllModesBothEngines) {
  // Observability must be invisible in results: metrics/tracing/slow-log
  // ON vs OFF produce byte-identical tables (same rows, same order) on
  // every optimizer mode and both engines.
  for (plan::SpjmQuery query : {TriangleQuery(), TwoHopQuery()}) {
    for (OptimizerMode mode : kAllModes) {
      for (exec::EngineKind engine :
           {exec::EngineKind::kMaterialize, exec::EngineKind::kPipeline}) {
        SCOPED_TRACE(std::string(query.name) + " / " +
                     optimizer::ModeName(mode) + " / " +
                     (engine == exec::EngineKind::kPipeline
                          ? "pipeline"
                          : "materialize"));
        exec::ExecutionOptions off = Options(engine, 2);
        off.metrics = false;
        exec::ExecutionOptions on = Options(engine, 2);
        on.metrics = true;
        on.trace = true;
        on.slow_query_ms = 1e-6;
        auto plain = db_.Run(query, mode, off);
        auto observed = db_.Run(query, mode, on);
        ASSERT_TRUE(plain.ok()) << plain.status().ToString();
        ASSERT_TRUE(observed.ok()) << observed.status().ToString();
        const storage::Table& expect = *plain->table;
        const storage::Table& got = *observed->table;
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
    }
  }
  db_.trace_sink().Clear();
  db_.slow_query_log().Clear();
}

TEST_F(ObsTest, ConcurrentStormWithMetricsAndTracingOn) {
  // The PR 5 storm with the full observability stack enabled: 4 clients,
  // both engines, metrics + tracing + slow-query log all recording. TSan
  // (CI) proves the instrumentation is race-free; here we check the
  // counters add up and results stay correct.
  auto serial = db_.Run(TriangleQuery(), OptimizerMode::kRelGo,
                        testing::OracleOptions());
  ASSERT_TRUE(serial.ok());
  auto reference = testing::SortedRows(*serial->table);
  obs::MetricsSnapshot before = db_.metrics().Snapshot();
  db_.SetTracing(true);

  constexpr int kClients = 4;
  constexpr int kIters = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::ExecutionOptions options =
          Options(c % 2 == 0 ? exec::EngineKind::kPipeline
                             : exec::EngineKind::kMaterialize,
                  2);
      options.slow_query_ms = 1e-6;  // log every query
      for (int i = 0; i < kIters; ++i) {
        auto result =
            db_.Run(TriangleQuery(), OptimizerMode::kRelGo, options);
        if (!result.ok() ||
            testing::SortedRows(*result->table) != reference) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  db_.SetTracing(false);
  EXPECT_EQ(bad.load(), 0);

  obs::MetricsSnapshot after = db_.metrics().Snapshot();
  constexpr uint64_t kTotal = kClients * kIters;
  EXPECT_EQ(after.CounterValue("relgo_queries_total") -
                before.CounterValue("relgo_queries_total"),
            kTotal);  // the serial reference ran before `before`
  EXPECT_EQ(db_.slow_query_log().total(), kTotal);
  EXPECT_GT(db_.trace_sink().size(), 0u);
  std::string json = db_.DumpTraceJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid());
}

TEST_F(ObsTest, AdmissionRejectionsUnderStormAreCounted) {
  // Deterministic shed-load storm: the test holds the database's only
  // admission slot with a zero-length wait queue, so admission control
  // must reject every storm query — and each rejection is classified
  // exactly once into relgo_queries_rejected_total and recorded in the
  // slow-query log with a non-ok status= field. The TSan CI job runs
  // this suite, so the admission/metrics paths are also proven race-free.
  obs::MetricsSnapshot before = db_.metrics().Snapshot();
  db_.slow_query_log().Clear();
  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 1;
  admission.max_queued = 0;
  admission.max_wait_ms = 10;
  db_.worker_pool().SetAdmission(admission);
  ASSERT_TRUE(db_.worker_pool().AdmitQuery(1000, nullptr).ok())
      << "test occupies the only slot";

  constexpr int kClients = 4;
  constexpr int kIters = 4;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::ExecutionOptions options =
          Options(c % 2 == 0 ? exec::EngineKind::kPipeline
                             : exec::EngineKind::kMaterialize,
                  2);
      options.slow_query_ms = 1e-6;  // log every query
      for (int i = 0; i < kIters; ++i) {
        auto result =
            db_.Run(TriangleQuery(), OptimizerMode::kRelGo, options);
        if (result.ok() || result.status().code() !=
                               StatusCode::kResourceExhausted) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  db_.worker_pool().ReleaseQuery();
  db_.worker_pool().SetAdmission({});
  EXPECT_EQ(bad.load(), 0) << "every storm query must be shed";

  obs::MetricsSnapshot after = db_.metrics().Snapshot();
  constexpr uint64_t kTotal = kClients * kIters;
  EXPECT_EQ(after.CounterValue("relgo_queries_rejected_total") -
                before.CounterValue("relgo_queries_rejected_total"),
            kTotal);
  EXPECT_EQ(after.CounterValue("relgo_query_failures_total") -
                before.CounterValue("relgo_query_failures_total"),
            kTotal);
  // Rejections carry their terminal status into the slow-query log.
  std::vector<std::string> records = db_.slow_query_log().records();
  ASSERT_EQ(db_.slow_query_log().total(), kTotal);
  for (const std::string& line : records) {
    EXPECT_NE(line.find("status="), std::string::npos) << line;
    EXPECT_EQ(line.find("status=ok"), std::string::npos) << line;
  }
  db_.slow_query_log().Clear();
  // Once the cap is lifted the same query is served normally again.
  EXPECT_TRUE(db_.Run(TriangleQuery(), OptimizerMode::kRelGo).ok());
}

}  // namespace
}  // namespace relgo
