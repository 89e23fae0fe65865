#ifndef RELGO_EXEC_CONTEXT_H_
#define RELGO_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "exec/profile.h"
#include "graph/graph_index.h"
#include "graph/rg_mapping.h"
#include "storage/catalog.h"
#include "storage/expression.h"

namespace relgo {

namespace obs {
class TraceRecorder;
}  // namespace obs

namespace exec {

class ScanCache;

namespace pipeline {
class TaskScheduler;
}  // namespace pipeline

/// Which runtime interprets the physical plan.
///
///  * kPipeline    — the production engine (exec/pipeline/*): the plan is
///    decomposed into pipelines split at breakers and executed
///    batch-at-a-time by a worker pool, through the vectorized kernels,
///    dictionary codes, the shared join hash table and the scan cache.
///  * kMaterialize — the reference interpreter (exec/executor.*): every
///    operator fully materializes its output, evaluating filters row at
///    a time and keying joins, GROUP BY and ORDER BY on boxed Values. It
///    shares none of the pipeline's accelerated components, which makes
///    it the oracle of the differential tests (pipeline_parity_test.cc)
///    and of perfbench's result checks. It is not tuned for speed.
///
/// Both engines emit the same rows in the same order: pipeline sinks
/// merge in (morsel, offset) position order (equal to the sequential scan
/// order, independent of thread count), and every reference operator
/// streams its input in row order with hash-join matches in build-row
/// order, as the pipeline does.
enum class EngineKind {
  kMaterialize,
  kPipeline,
};

/// The interrupt-check cadence of the engines' row loops — the
/// observable-latency contract of cooperative cancellation:
///
///  * The reference interpreter calls ExecutionContext::CheckInterrupt()
///    at every operator dispatch and, inside per-row expansion/probe
///    loops, every `kInterruptCheckMask + 1` (= 4096) iterations. One
///    shared constant for every loop (this used to be an ad-hoc mix of
///    0xFFFF / 0xFFF / 0x3FF masks).
///  * The pipeline engine checks once per morsel before any work on it,
///    plus at pipeline/breaker entry, and once per bounded batch inside
///    the morsel: every streaming operator call emits at most kBatchRows
///    (= 2048) rows and charges them through ChargeRows, which routes
///    through CheckInterrupt. A hub vertex's expansion is cut into such
///    batches, so even a single-morsel pipeline is checked every
///    kBatchRows output rows. Pushed-filter passes (FilterBitmap) run at
///    Prepare, after the pipeline-entry check: one pass per filtered
///    table with no check inside it.
///
/// Consequently Database::CancelQuery (and the timeout clock) is observed
/// within one bounded batch or one check-interval of row-loop work in
/// BOTH engines — a few thousand rows of latency, never an unbounded scan
/// — and a query over its row budget fails with at most one batch of rows
/// charged past the budget per worker.
inline constexpr uint64_t kInterruptCheckMask = 0xFFF;

/// Resource limits for one query execution, mirroring the paper's
/// experimental protocol: a wall-clock timeout (10 minutes in the paper)
/// and a memory budget whose exhaustion is reported as OOM (e.g.
/// RelGoNoEI on the 4-clique query QC3).
struct ExecutionOptions {
  /// Total intermediate + output tuples a query may materialize before the
  /// executor aborts with kOutOfMemory.
  uint64_t max_total_rows = 80'000'000;
  /// Wall-clock limit; kTimeout past this.
  double timeout_ms = 600'000.0;
  /// Runtime selection: the pipeline engine serves queries; kMaterialize
  /// asks for the reference interpreter explicitly.
  EngineKind engine = EngineKind::kPipeline;
  /// Worker threads for the pipeline engine. 0 = hardware concurrency;
  /// 1 = single-threaded mode (used by tests). Ignored by the reference
  /// interpreter.
  int num_threads = 0;
  /// Consult the owning Database's cross-query scan/filter cache (ROADMAP
  /// "Shared scan caching"): the pipeline engine's pushed filters over
  /// base tables (scan sources and expansion-style operators) reuse the
  /// filter bitmaps computed by earlier queries instead of re-evaluating
  /// the predicate, invalidated by the table's version counter. Results
  /// are bit-identical either way (the cache stores exactly what the
  /// filter pass would have produced, and row-budget charges are
  /// unchanged), so this is on by default; the off switch
  /// exists for A/B measurement. The reference interpreter never
  /// consults the cache.
  bool scan_cache = true;
  /// Consult the owning Database's cross-query plan cache (ROADMAP
  /// "Serving tier"): optimized physical plans are cached by template
  /// signature (query shape with parameter slots in place of constants,
  /// per optimizer mode) and validated against the catalog data version —
  /// so a hit skips optimization entirely and an entry is invalidated
  /// exactly when a table changed. Statistics are fixed after
  /// Database::Finalize, so nothing else can make a cached plan stale.
  /// A hit runs the cached plan itself, shared read-only with every
  /// other execution of the template; each call's constants bind where
  /// the engines clone the plan's expressions (ExecutionContext::params).
  /// Parameterized predicates are estimated value-insensitively, so
  /// cached and fresh runs are bit-identical; on by default, with the off
  /// switch for A/B measurement and the differential suite
  /// (plan_cache_test).
  bool plan_cache = true;
  /// Record this query into the Database's process-wide MetricsRegistry
  /// (query/failure counters, optimization/execution latency
  /// histograms). Per-query granularity only — nothing per row or
  /// per morsel — so results are bit-identical either way; the off switch
  /// exists for A/B parity tests and to exclude a query from the fleet
  /// view (obs_test pins the parity).
  bool metrics = true;
  /// Record query-lifecycle spans (optimize, execute, per-pipeline build/
  /// run/sink-finish) into the Database's TraceSink, exportable as Chrome
  /// trace-event JSON via Database::DumpTrace. Off by default: spans
  /// allocate. Tracing is also forced on for every query while the sink
  /// itself is enabled (Database::SetTracing).
  bool trace = false;
  /// Slow-query log threshold: a query whose optimization + execution
  /// wall time reaches this many milliseconds is recorded as one
  /// structured line in the Database's SlowQueryLog. <= 0 disables.
  double slow_query_ms = 0.0;
  /// When set, the Database stores the query id it minted for this run
  /// (the same id that keys traces, the slow-query log, and the
  /// cancellation registry) before execution starts — the handle a
  /// controlling thread needs to call Database::CancelQuery on a query
  /// that is still in flight. Atomic because the controller typically
  /// spins on it from another thread. Null (default) skips the export.
  std::atomic<uint64_t>* query_id_out = nullptr;
};

/// Resolves ExecutionOptions::num_threads to a concrete worker count.
inline int ResolveNumThreads(const ExecutionOptions& options) {
  if (options.num_threads > 0) return options.num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Everything an operator needs to run: the base relations, the RGMapping
/// (vertex/edge label resolution), the graph index (may be absent for
/// index-free baselines), and the resource accounting state.
class ExecutionContext {
 public:
  ExecutionContext(const storage::Catalog* catalog,
                   const graph::RgMapping* mapping,
                   const graph::GraphIndex* index,
                   ExecutionOptions options = {})
      : catalog_(catalog),
        mapping_(mapping),
        index_(index),
        options_(options) {}

  const storage::Catalog& catalog() const { return *catalog_; }
  const graph::RgMapping& mapping() const { return *mapping_; }
  bool has_index() const { return index_ != nullptr && index_->built(); }
  const graph::GraphIndex& index() const { return *index_; }
  const ExecutionOptions& options() const { return options_; }

  /// Accounts for `rows` newly materialized tuples; kOutOfMemory when the
  /// budget is exceeded, kCancelled/kTimeout per CheckInterrupt.
  /// Thread-safe: the pipeline engine's workers charge concurrently.
  Status ChargeRows(uint64_t rows) {
    uint64_t total = rows_produced_.fetch_add(rows,
                                              std::memory_order_relaxed) +
                     rows;
    if (total > options_.max_total_rows) {
      return Status::OutOfMemory(
          "intermediate results exceeded " +
          std::to_string(options_.max_total_rows) + " rows");
    }
    return CheckInterrupt();
  }

  /// The single cooperative interrupt point of both engines (see the
  /// kInterruptCheckMask contract above): kCancelled once the query's
  /// cancel token fired (Database::CancelQuery / CancelAll / shutdown),
  /// kTimeout once the wall clock passed ExecutionOptions::timeout_ms.
  /// Cancellation wins ties — a cancelled query reports kCancelled even
  /// if its deadline also lapsed while it was being torn down.
  Status CheckInterrupt() const {
    if (cancelled_ != nullptr &&
        cancelled_->load(std::memory_order_relaxed)) {
      return Status::Cancelled("query " + std::to_string(query_id_) +
                               " cancelled");
    }
    if (timer_.ElapsedMillis() > options_.timeout_ms) {
      return Status::Timeout("query exceeded " +
                             std::to_string(options_.timeout_ms) + " ms");
    }
    return Status::OK();
  }

  /// Wires the query's cancellation token (owned by the Database's query
  /// registry; null for standalone engine executions, which are then only
  /// interruptible by timeout) and the registry id CheckInterrupt reports.
  void SetCancelToken(const std::atomic<bool>* cancelled) {
    cancelled_ = cancelled;
  }
  const std::atomic<bool>* cancel_token() const { return cancelled_; }
  void SetQueryId(uint64_t id) { query_id_ = id; }
  uint64_t query_id() const { return query_id_; }

  uint64_t rows_produced() const {
    return rows_produced_.load(std::memory_order_relaxed);
  }
  double elapsed_ms() const { return timer_.ElapsedMillis(); }

  /// The values this call binds to the plan's parameter slots
  /// (optimizer::CollectBoundParams of the query; empty for
  /// Database::Execute). A cached plan is shared by every binding of its
  /// template and must not be written, so every exec site that binds a
  /// plan expression binds Expr::CloneWithParams(params()) of it.
  void SetParams(storage::ParamValues params) { params_ = std::move(params); }
  const storage::ParamValues& params() const { return params_; }

  /// Enables per-operator profiling; measurements land in `profile`.
  void EnableProfiling(QueryProfile* profile) { profile_ = profile; }
  QueryProfile* profile() const { return profile_; }

  /// The process-wide worker pool this query's pipelines run on (set by
  /// Database; null for standalone engine executions, which then use a
  /// query-private pool).
  void SetScheduler(pipeline::TaskScheduler* scheduler) {
    scheduler_ = scheduler;
  }
  pipeline::TaskScheduler* scheduler() const { return scheduler_; }

  /// The Database's cross-query scan/filter cache; null when absent or
  /// disabled (ExecutionOptions::scan_cache).
  void SetScanCache(ScanCache* cache) { scan_cache_ = cache; }
  ScanCache* scan_cache() const { return scan_cache_; }

  /// The query's span recorder; null when tracing is off (the engine's
  /// span sites are one null check, mirroring profile()'s
  /// zero-cost-when-off discipline).
  void SetTrace(obs::TraceRecorder* trace) { trace_ = trace; }
  obs::TraceRecorder* trace() const { return trace_; }

  /// Scan-cache hit accounting for this execution (thread-safe: scan
  /// Prepare may run concurrently across a query's pipelines). Surfaced
  /// as QueryProfile::scan_cache_hits and QueryRunResult.
  void CountScanCacheHit() {
    scan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t scan_cache_hits() const {
    return scan_cache_hits_.load(std::memory_order_relaxed);
  }

  /// --- Deferred scan-cache publication -------------------------------
  ///
  /// Failed (cancelled, timed-out, faulted) queries must never publish
  /// scan-cache entries, so the pipeline engine never Puts into the cache
  /// mid-query: completed filter bitmaps are queued here and the
  /// Database commits the queue only after the whole query succeeded
  /// (dropping it on any failure). Entries are complete and correct at
  /// queue time — deferral only narrows *when* they become visible to
  /// other queries. Queue sites run on the owning thread (source and
  /// operator Prepare), but a small mutex keeps the queue safe if that
  /// ever changes.

  void QueuePutBitmap(std::string key, uint64_t version,
                      std::shared_ptr<const std::vector<uint8_t>> bitmap) {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    pending_puts_.push_back({std::move(key), version, std::move(bitmap)});
  }
  /// Publishes every queued entry into the attached scan cache (no-op
  /// without one). Called by the Database on query success only.
  void CommitScanCachePublications();
  void DropScanCachePublications() {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    pending_puts_.clear();
  }
  size_t pending_cache_publications() const {
    std::lock_guard<std::mutex> lock(pending_puts_mu_);
    return pending_puts_.size();
  }

  /// Resolves the base table behind a vertex label.
  Result<storage::TablePtr> VertexTable(int vertex_label) const {
    return catalog_->GetTable(mapping_->vertex_mapping(vertex_label).table);
  }
  /// Resolves the base table behind an edge label.
  Result<storage::TablePtr> EdgeTable(int edge_label) const {
    return catalog_->GetTable(mapping_->edge_mapping(edge_label).table);
  }

 private:
  struct PendingCachePut {
    std::string key;
    uint64_t version = 0;
    std::shared_ptr<const std::vector<uint8_t>> bitmap;
  };

  const storage::Catalog* catalog_;
  const graph::RgMapping* mapping_;
  const graph::GraphIndex* index_;
  ExecutionOptions options_;
  storage::ParamValues params_;
  Timer timer_;
  std::atomic<uint64_t> rows_produced_{0};
  QueryProfile* profile_ = nullptr;
  pipeline::TaskScheduler* scheduler_ = nullptr;
  ScanCache* scan_cache_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  std::atomic<uint64_t> scan_cache_hits_{0};
  const std::atomic<bool>* cancelled_ = nullptr;
  uint64_t query_id_ = 0;
  mutable std::mutex pending_puts_mu_;
  std::vector<PendingCachePut> pending_puts_;
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_CONTEXT_H_
