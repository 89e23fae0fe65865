#ifndef RELGO_EXEC_PIPELINE_PIPELINE_H_
#define RELGO_EXEC_PIPELINE_PIPELINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "exec/pipeline/operators.h"
#include "exec/pipeline/scheduler.h"
#include "exec/scan_cache.h"

namespace relgo {
namespace exec {
namespace pipeline {

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Produces the driving batches of a pipeline. `num_rows()` defines the
/// morsel space: the scheduler partitions [0, num_rows) into kBatchRows
/// ranges and workers call Emit() on claimed ranges concurrently.
class Source {
 public:
  virtual ~Source() = default;
  virtual Status Prepare(ExecutionContext* ctx) = 0;
  const storage::Schema& output_schema() const { return output_schema_; }
  virtual uint64_t num_rows() const = 0;
  virtual Status Emit(uint64_t begin, uint64_t count, Batch* out,
                      ExecutionContext* ctx) const = 0;

  /// Called once after the pipeline's morsels drained (successfully or
  /// not), back on the owning thread. Scan sources use it to queue a
  /// completely collected selection vector for scan-cache publication
  /// (committed only if the whole query succeeds); the default is a
  /// no-op. May fail (fault injection at the publish site); a failure on
  /// an otherwise successful run fails the pipeline.
  virtual Status PipelineFinished(const Status& run_status,
                                  ExecutionContext* ctx) {
    (void)run_status;
    (void)ctx;
    return Status::OK();
  }

 protected:
  storage::Schema output_schema_;
};

using SourcePtr = std::unique_ptr<Source>;

/// Streams an already-materialized table (a breaker's output, or a hash
/// join's probe feed). Whole-table morsels share columns zero-copy.
class TableSource : public Source {
 public:
  explicit TableSource(storage::TablePtr table) : table_(std::move(table)) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return table_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;

 private:
  storage::TablePtr table_;
};

/// Shared scan-cache plumbing of the two filtered scan sources: the hit /
/// miss decision in Prepare, per-morsel collection of a miss's selection
/// slices, and publication of the assembled vector once every morsel of
/// the pipeline emitted (LIMIT early-exit skips morsels, which simply
/// leaves the vector incomplete and unpublished).
class CachedSelectionScan {
 protected:
  /// Looks `key` up in the context's scan cache (if any); on a hit counts
  /// it and returns true, on a miss sizes the per-morsel collection slots.
  bool PrepareCache(ExecutionContext* ctx, std::string key,
                    uint64_t table_version, uint64_t table_rows);
  /// The cached row ids intersected with morsel [begin, begin + count) —
  /// exactly what the filter loop would have selected there.
  void CachedRange(uint64_t begin, uint64_t count,
                   std::vector<uint64_t>* sel) const;
  /// Records a miss morsel's freshly computed selection slice.
  void Collect(uint64_t morsel, const std::vector<uint64_t>& sel) const;
  /// Queues the assembled selection vector for publication (deferred to
  /// query commit, see ExecutionContext) if the run succeeded and every
  /// morsel reported in.
  Status PublishIfComplete(const Status& run_status, ExecutionContext* ctx);

  bool caching_ = false;  ///< collecting a miss for publication
  std::string cache_key_;
  uint64_t table_version_ = 0;
  ScanCache::SelectionPtr cached_;  ///< non-null on a hit

 private:
  mutable std::vector<std::vector<uint64_t>> slots_;
  mutable std::atomic<uint64_t> slots_filled_{0};
};

/// PhysScanTable over a base relation: filter + projection + optional
/// "$rid" column, evaluated per morsel (or replayed from the cross-query
/// scan cache when an earlier query already filtered this table with the
/// same predicate).
class ScanTableSource : public Source, private CachedSelectionScan {
 public:
  explicit ScanTableSource(const plan::PhysScanTable& op) : op_(op) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return table_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;
  Status PipelineFinished(const Status& run_status,
                          ExecutionContext* ctx) override;

 private:
  const plan::PhysScanTable& op_;
  storage::TablePtr table_;
  /// Bound per-execution clone of op_.filter: plans may share expression
  /// trees with the query they were optimized from, and Bind writes
  /// resolved column indexes — concurrent executions must not race on it.
  storage::ExprPtr filter_;
  /// Vectorized lowering of filter_ (null on fallback); morsels then scan
  /// typed payload spans instead of evaluating the tree per row.
  std::unique_ptr<vector::CompiledPredicate> compiled_;
  std::vector<int> raw_indexes_;
};

/// PhysScanVertex: emits the row ids of the (optionally filtered) vertex
/// relation as one binding column; filtered vertex scans share the same
/// cross-query cache as table scans (under a "vscan|" key).
class ScanVertexSource : public Source, private CachedSelectionScan {
 public:
  explicit ScanVertexSource(const plan::PhysScanVertex& op) : op_(op) {}
  Status Prepare(ExecutionContext* ctx) override;
  uint64_t num_rows() const override { return vtable_->num_rows(); }
  Status Emit(uint64_t begin, uint64_t count, Batch* out,
              ExecutionContext* ctx) const override;
  Status PipelineFinished(const Status& run_status,
                          ExecutionContext* ctx) override;

 private:
  const plan::PhysScanVertex& op_;
  storage::TablePtr vtable_;
  storage::ExprPtr filter_;  ///< bound clone, see ScanTableSource
  std::unique_ptr<vector::CompiledPredicate> compiled_;  ///< see above
};

// ---------------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------------

/// One source → streaming ops → sink segment of a decomposed plan.
///
/// The plan-node pointers mirror `source` / `ops` and exist purely for
/// profiling (EXPLAIN ANALYZE): when the execution context carries a
/// QueryProfile, RunPipeline attributes per-morsel row counts and timings
/// to these nodes. `source_node` is null when the source streams a
/// materialized breaker result (TableSource) — that subtree was profiled
/// by its own pipelines already.
struct Pipeline {
  SourcePtr source;
  std::vector<StreamingOpPtr> ops;
  const plan::PhysicalOp* source_node = nullptr;
  std::vector<const plan::PhysicalOp*> op_nodes;
};

/// Prepares every stage (resolving schemas source → ops → sink), then runs
/// the pipeline morsel-by-morsel on `scheduler` and returns the sink's
/// merged result. Each worker drives its morsel depth-first through the
/// operators, one bounded batch (at most kBatchRows rows) at a time.
/// Honors the context's row budget and timeout: workers check the clock
/// per morsel and charge rows per bounded batch, and the first failing
/// morsel aborts the run.
Result<storage::TablePtr> RunPipeline(Pipeline* pipeline, Sink* sink,
                                      TaskScheduler* scheduler,
                                      ExecutionContext* ctx);

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_PIPELINE_H_
