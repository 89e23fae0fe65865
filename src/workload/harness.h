#ifndef RELGO_WORKLOAD_HARNESS_H_
#define RELGO_WORKLOAD_HARNESS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "workload/ldbc.h"

namespace relgo {
namespace workload {

/// Outcome of one (query, optimizer mode) measurement.
struct RunMeasurement {
  std::string query;
  std::string mode;
  double optimization_ms = 0.0;  ///< mean over the timed repetitions
  double execution_ms = 0.0;     ///< mean over the timed repetitions
  /// Spread of the timed repetitions: median, fastest and slowest.
  double optimization_ms_median = 0.0;
  double optimization_ms_min = 0.0;
  double optimization_ms_max = 0.0;
  double execution_ms_median = 0.0;
  double execution_ms_min = 0.0;
  double execution_ms_max = 0.0;
  uint64_t result_rows = 0;
  bool timed_out = false;       ///< reported as OT, like the paper
  bool out_of_memory = false;   ///< reported as OOM
  bool failed = false;
  std::string error;

  /// Estimator accuracy, measured on the profiled warm-up run (Sec 5
  /// style): geometric-mean and worst per-operator Q-error over all plan
  /// nodes carrying both an optimizer estimate and an actual cardinality.
  double qerror_geomean = 0.0;  ///< 0 == not measured (run failed)
  double qerror_max = 0.0;
  int qerror_ops = 0;

  /// Breaker serial-section accounting from the profiled warm-up (pipeline
  /// engine only; 0 on the materializing engine): wall time of hash-join
  /// hash-table construction and of sort/top-k sink finish.
  double build_ms = 0.0;
  double sort_ms = 0.0;

  /// Filtered scans the profiled warm-up replayed from the cross-query
  /// scan cache (0 when the cache is off or cold).
  uint64_t scan_cache_hits = 0;

  double TotalMs() const { return optimization_ms + execution_ms; }
  /// "OT" / "OOM" / formatted milliseconds.
  std::string StatusOrMs(bool end_to_end) const;
};

/// Outcome of one multi-client throughput run (Harness::RunConcurrent):
/// N client threads replaying a query mix against one shared Database —
/// the concurrent-serving protocol the shared worker pool and the
/// cross-query scan cache exist for.
struct ConcurrentMeasurement {
  std::string mode;
  int clients = 0;
  int queries_per_client = 0;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;  ///< any non-OK status (incl. OT/OOM)
  double wall_ms = 0.0;
  double qps = 0.0;  ///< completed (ok) queries per second of wall time
  /// Scan-cache activity during this run (deltas of the database cache's
  /// lifetime counters).
  uint64_t scan_cache_hits = 0;
  uint64_t scan_cache_misses = 0;
  double cache_hit_rate = 0.0;  ///< hits / (hits + misses); 0 if no lookups
  /// Plan-cache activity during this run (deltas, like the scan-cache
  /// fields; all zero when ExecutionOptions::plan_cache is off).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  double plan_cache_hit_rate = 0.0;
  /// Per-query end-to-end latency tail over every completed (ok) query of
  /// the storm — the serving-tier metric QPS alone hides (ROADMAP: report
  /// tail latency, not just QPS). Exact nearest-rank percentiles over the
  /// raw per-query samples (obs::PercentileOfSorted), not bucketized.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Lifecycle breakdown of the failed queries (chaos storms and
  /// admission-capped runs; all zero in plain throughput runs):
  /// cancelled mid-flight, shed by admission control, timed out.
  uint64_t queries_cancelled = 0;
  uint64_t queries_rejected = 0;
  uint64_t queries_timeout = 0;
};

/// Outcome of Harness::RunHotTemplates: the serving-tier hot-template
/// sweep. A small set of templates is run once cold (plan cache cleared,
/// so every template optimizes) and then `iterations` more times each
/// (the steady state production traffic looks like), splitting mean
/// optimization time by phase — with the plan cache on, warm runs hit the
/// cache and warm_optimization_ms collapses toward 0 while execution is
/// bit-identical.
struct HotTemplateMeasurement {
  std::string mode;
  int templates = 0;   ///< distinct templates in the sweep
  int iterations = 0;  ///< warm repetitions per template
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  double cold_optimization_ms = 0.0;  ///< mean over the cold pass
  double warm_optimization_ms = 0.0;  ///< mean over all warm runs
  double warm_execution_ms = 0.0;     ///< mean over all ok warm runs
  /// Plan-cache activity during the WARM phase only (deltas of the
  /// database cache's lifetime counters taken around the warm rounds): the
  /// cold pass necessarily misses, so including it would cap the rate at
  /// iterations/(iterations+1) and hide warm-phase regressions.
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  double plan_cache_hit_rate = 0.0;
  double wall_ms = 0.0;
  double qps = 0.0;  ///< completed (ok) queries per second of wall time
};

/// Chaos knob for Harness::RunConcurrent: deterministically cancels a
/// fraction of the storm's queries mid-flight (per-query controller
/// threads spin on ExecutionOptions::query_id_out, then call
/// Database::CancelQuery), exercising the cooperative-cancellation path
/// under real concurrency. Which queries are targeted is a pure function
/// of (seed, client, iteration), so a storm is reproducible.
struct ChaosOptions {
  double cancel_fraction = 0.0;  ///< [0,1] share of queries to cancel
  uint64_t seed = 42;            ///< picks the targeted queries
};

/// Benchmark harness mirroring the paper's protocol: warm-up run, then
/// `repetitions` timed runs averaged; OT/OOM handling; per-figure table
/// rendering.
class Harness {
 public:
  /// `repetitions` below 1 is clamped to 1, so every successful
  /// measurement has at least one timed sample.
  Harness(const Database* db, exec::ExecutionOptions exec_options = {},
          int repetitions = 3)
      : db_(db),
        exec_options_(exec_options),
        repetitions_(std::max(repetitions, 1)) {}

  /// Runs one query under one mode, averaging timed repetitions.
  RunMeasurement Run(const WorkloadQuery& wq,
                     optimizer::OptimizerMode mode) const;

  /// Runs a full (queries x modes) grid.
  std::vector<RunMeasurement> RunGrid(
      const std::vector<WorkloadQuery>& queries,
      const std::vector<optimizer::OptimizerMode>& modes) const;

  /// Throughput protocol: `clients` threads each run
  /// `queries_per_client` queries round-robin over `mix` (offset by the
  /// client index so concurrent clients hit overlapping but staggered
  /// queries), all against this harness's Database — sharing its worker
  /// pool and scan cache — and the wall clock over the whole storm gives
  /// QPS. Scan-cache hit/miss deltas are read off the database cache's
  /// counters around the run, so run it on an otherwise idle database.
  ConcurrentMeasurement RunConcurrent(const std::vector<WorkloadQuery>& mix,
                                      optimizer::OptimizerMode mode,
                                      int clients,
                                      int queries_per_client,
                                      const ChaosOptions& chaos = {}) const;

  /// Hot-template sweep (ROADMAP serving tier): clears the plan cache,
  /// runs every template once cold, then `iterations` warm rounds over
  /// the set, reporting cold vs warm mean optimization time and the
  /// plan-cache hit/miss deltas. Honors this harness's ExecutionOptions —
  /// with plan_cache off the sweep measures the re-optimization baseline
  /// (the A/B the bench records). Run on an otherwise idle database, like
  /// RunConcurrent.
  HotTemplateMeasurement RunHotTemplates(
      const std::vector<WorkloadQuery>& templates,
      optimizer::OptimizerMode mode, int iterations) const;

  /// Renders a fixed-width table: one row per query, one column per mode,
  /// values as milliseconds (end-to-end when `end_to_end`).
  static std::string FormatTable(const std::vector<RunMeasurement>& runs,
                                 bool end_to_end);

  /// Renders speedups of each mode against `baseline_mode`
  /// (Time(baseline) / Time(mode), the paper's Fig 11 metric).
  static std::string FormatSpeedups(const std::vector<RunMeasurement>& runs,
                                    const std::string& baseline_mode);

  /// Renders per-(query, mode) geometric-mean Q-error — the estimator
  /// accuracy grid mirroring the paper's Sec 5 accuracy analysis.
  static std::string FormatQErrors(const std::vector<RunMeasurement>& runs);

  /// Geometric-mean speedup of `mode` vs `baseline_mode` over queries where
  /// both completed.
  static double AverageSpeedup(const std::vector<RunMeasurement>& runs,
                               const std::string& baseline_mode,
                               const std::string& mode);

 private:
  const Database* db_;
  exec::ExecutionOptions exec_options_;
  int repetitions_;
};

}  // namespace workload
}  // namespace relgo

#endif  // RELGO_WORKLOAD_HARNESS_H_
