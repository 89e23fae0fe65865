#include "exec/pipeline/pipeline.h"

#include <algorithm>
#include <type_traits>

#include "common/fault.h"
#include "exec/exec_common.h"
#include "obs/trace.h"

namespace relgo {
namespace exec {
namespace pipeline {

using storage::Column;
using storage::Schema;

// ---------------------------------------------------------------------------
// TableSource
// ---------------------------------------------------------------------------

Status TableSource::Prepare(ExecutionContext* ctx) {
  (void)ctx;
  output_schema_ = table_->schema();
  return Status::OK();
}

Status TableSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                         ExecutionContext* ctx) const {
  (void)ctx;
  *out = SliceTable(table_, begin, count);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CachedSelectionScan
// ---------------------------------------------------------------------------

bool CachedSelectionScan::PrepareCache(ExecutionContext* ctx, std::string key,
                                       uint64_t table_version,
                                       uint64_t table_rows) {
  caching_ = false;
  cached_ = nullptr;
  ScanCache* cache = ctx->scan_cache();
  if (cache == nullptr) return false;
  cache_key_ = std::move(key);
  table_version_ = table_version;
  cached_ = cache->Get(cache_key_, table_version_);
  if (cached_ != nullptr) {
    ctx->CountScanCacheHit();
    return true;
  }
  // Miss: collect per-morsel selection slices for publication. Slots are
  // written by distinct morsels only, so no synchronization is needed
  // beyond the filled counter.
  caching_ = true;
  uint64_t morsels = (table_rows + kBatchRows - 1) / kBatchRows;
  slots_.assign(static_cast<size_t>(morsels), {});
  slots_filled_.store(0, std::memory_order_relaxed);
  return false;
}

void CachedSelectionScan::CachedRange(uint64_t begin, uint64_t count,
                                      std::vector<uint64_t>* sel) const {
  auto lo = std::lower_bound(cached_->begin(), cached_->end(), begin);
  auto hi = std::lower_bound(lo, cached_->end(), begin + count);
  sel->assign(lo, hi);
}

void CachedSelectionScan::Collect(uint64_t morsel,
                                  const std::vector<uint64_t>& sel) const {
  slots_[morsel] = sel;
  slots_filled_.fetch_add(1, std::memory_order_release);
}

Status CachedSelectionScan::PublishIfComplete(const Status& run_status,
                                              ExecutionContext* ctx) {
  if (!caching_ || !run_status.ok()) return Status::OK();
  if (slots_filled_.load(std::memory_order_acquire) != slots_.size()) {
    // Some morsels were skipped (LIMIT early-exit) — incomplete.
    return Status::OK();
  }
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kScanCachePublish));
  auto sel = std::make_shared<std::vector<uint64_t>>();
  size_t total = 0;
  for (const auto& slot : slots_) total += slot.size();
  sel->reserve(total);
  // Morsel order == ascending row order, so the concatenation is sorted.
  for (const auto& slot : slots_) {
    sel->insert(sel->end(), slot.begin(), slot.end());
  }
  // Deferred to query commit (see ExecutionContext): a later failure of
  // another pipeline of this query must not leave the entry behind.
  ctx->QueuePutSelection(cache_key_, table_version_, std::move(sel));
  caching_ = false;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScanTableSource
// ---------------------------------------------------------------------------

Status ScanTableSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(table_, ctx->catalog().GetTable(op_.table));
  filter_ = op_.filter ? op_.filter->Clone() : nullptr;
  if (filter_) {
    RELGO_RETURN_NOT_OK(filter_->Bind(table_->schema()));
    PrepareCache(ctx, ScanCache::Key("scan", op_.table, op_.filter),
                 table_->version(), table_->num_rows());
    compiled_ = vector::CompiledPredicate::Compile(
        *filter_, table_->schema(), table_.get());
  }
  raw_indexes_.clear();
  output_schema_ = ScanSchema(*table_, op_.alias, op_.projected_columns,
                              op_.emit_rowid, &raw_indexes_);
  return Status::OK();
}

Status ScanTableSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                             ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  if (cached_ != nullptr) {
    CachedRange(begin, count, &sel);
  } else {
    sel.reserve(count);
    if (compiled_ != nullptr) {
      compiled_->FilterTable(*table_, begin, begin + count, &sel);
    } else {
      for (uint64_t r = begin; r < begin + count; ++r) {
        if (!filter_ || filter_->EvaluateBool(*table_, r)) sel.push_back(r);
      }
    }
    if (caching_) Collect(begin / kBatchRows, sel);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));

  if (op_.emit_rowid) {
    Column rid(LogicalType::kInt64);
    rid.Reserve(sel.size());
    for (uint64_t r : sel) rid.AppendInt(static_cast<int64_t>(r));
    out->AddOwned(std::move(rid));
  }
  bool whole_unfiltered = !filter_ && begin == 0 &&
                          count == table_->num_rows();
  for (int raw : raw_indexes_) {
    if (whole_unfiltered) {
      out->AddColumn(ShareTableColumn(table_, static_cast<size_t>(raw)));
    } else {
      out->AddOwned(table_->column(static_cast<size_t>(raw)).Gather(sel));
    }
  }
  out->SetNumRows(sel.size());
  return Status::OK();
}

Status ScanTableSource::PipelineFinished(const Status& run_status,
                                         ExecutionContext* ctx) {
  return PublishIfComplete(run_status, ctx);
}

// ---------------------------------------------------------------------------
// ScanVertexSource
// ---------------------------------------------------------------------------

Status ScanVertexSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(vtable_, ctx->VertexTable(op_.vertex_label));
  filter_ = op_.filter ? op_.filter->Clone() : nullptr;
  if (filter_) {
    RELGO_RETURN_NOT_OK(filter_->Bind(vtable_->schema()));
    PrepareCache(ctx, ScanCache::Key("vscan", vtable_->name(), op_.filter),
                 vtable_->version(), vtable_->num_rows());
    compiled_ = vector::CompiledPredicate::Compile(
        *filter_, vtable_->schema(), vtable_.get());
  }
  output_schema_ = BindingSchema({op_.var});
  return Status::OK();
}

Status ScanVertexSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                              ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  if (cached_ != nullptr) {
    CachedRange(begin, count, &sel);
  } else {
    sel.reserve(count);
    if (compiled_ != nullptr) {
      compiled_->FilterTable(*vtable_, begin, begin + count, &sel);
    } else {
      for (uint64_t r = begin; r < begin + count; ++r) {
        if (filter_ && !filter_->EvaluateBool(*vtable_, r)) continue;
        sel.push_back(r);
      }
    }
    if (caching_) Collect(begin / kBatchRows, sel);
  }
  Column col(LogicalType::kInt64);
  col.Reserve(sel.size());
  for (uint64_t r : sel) col.AppendInt(static_cast<int64_t>(r));
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(col.size()));
  uint64_t n = col.size();
  out->AddOwned(std::move(col));
  out->SetNumRows(n);
  return Status::OK();
}

Status ScanVertexSource::PipelineFinished(const Status& run_status,
                                          ExecutionContext* ctx) {
  return PublishIfComplete(run_status, ctx);
}

// ---------------------------------------------------------------------------
// RunPipeline
// ---------------------------------------------------------------------------

namespace {

/// One level of a worker's depth-first drive through a pipeline: the input
/// batch of ops[i] and how far ops[i] got through it. Level ops.size()
/// holds the batch bound for the sink.
struct Level {
  Batch batch;
  Cursor cursor;
};

/// Runs source rows [begin, begin + count) — morsel `morsel` — through the
/// pipeline depth-first. Every bounded batch an operator emits is pushed
/// through the remaining operators into the sink before that operator
/// resumes from its cursor, so each level holds at most one live batch and
/// the only per-batch allocations are the batches themselves. `levels` is
/// the worker's reusable stack (ops.size() + 1 entries). The profiled
/// instantiation accumulates into `slots` (source, ops..., sink); the
/// plain one carries no profiling code. Returns the rows the morsel handed
/// the sink in `*sink_rows`.
template <bool kProfiled>
Status DriveMorsel(const Pipeline& pipeline, Sink* sink, SinkState* state,
                   uint64_t morsel, uint64_t begin, uint64_t count,
                   std::vector<Level>* levels, OperatorProfile* slots,
                   uint64_t* sink_rows, ExecutionContext* ctx) {
  const size_t nops = pipeline.ops.size();
  std::vector<Level>& lv = *levels;
  Timer timer;
  lv[0].batch.Clear();
  lv[0].cursor = Cursor();
  RELGO_RETURN_NOT_OK(pipeline.source->Emit(begin, count, &lv[0].batch, ctx));
  if constexpr (kProfiled) {
    slots[0].wall_ms += timer.ElapsedMillis();
    slots[0].rows_in += count;
    slots[0].rows_out += lv[0].batch.num_rows();
    slots[0].invocations += 1;
    slots[0].max_batch_rows =
        std::max(slots[0].max_batch_rows, lv[0].batch.num_rows());
  }
  uint64_t offset = 0;  // rows this morsel handed the sink so far
  size_t d = 0;         // lv[d] is the input of ops[d]; d == nops: the sink
  if (lv[0].batch.num_rows() == 0) {
    *sink_rows = 0;
    return Status::OK();
  }
  while (true) {
    if (d == nops) {
      Batch& batch = lv[d].batch;
      // Sinks take flat batches; the flatten is the sink's self time.
      if constexpr (kProfiled) timer.Restart();
      if (batch.has_selection()) batch = batch.Flatten();
      RELGO_RETURN_NOT_OK(
          sink->Consume(state, batch, BatchPosition{morsel, offset}, ctx));
      if constexpr (kProfiled) {
        OperatorProfile& slot = slots[nops + 1];
        slot.wall_ms += timer.ElapsedMillis();
        slot.rows_in += batch.num_rows();
        slot.invocations += 1;
        slot.max_batch_rows =
            std::max(slot.max_batch_rows, batch.num_rows());
      }
      offset += batch.num_rows();
      batch.Clear();
      if (d == 0) break;
      --d;
      continue;
    }
    Level& cur = lv[d];
    if (cur.cursor.row >= cur.batch.num_rows()) {  // input exhausted
      cur.batch.Clear();
      if (d == 0) break;
      --d;
      continue;
    }
    Batch& next = lv[d + 1].batch;
    next.Clear();
    lv[d + 1].cursor = Cursor();
    if constexpr (kProfiled) timer.Restart();
    [[maybe_unused]] uint64_t row_before = cur.cursor.row;
    RELGO_RETURN_NOT_OK(
        pipeline.ops[d]->Process(cur.batch, &cur.cursor, &next, ctx));
    if constexpr (kProfiled) {
      OperatorProfile& slot = slots[d + 1];
      slot.wall_ms += timer.ElapsedMillis();
      slot.rows_in += cur.cursor.row - row_before;
      slot.rows_out += next.num_rows();
      slot.invocations += 1;
      slot.max_batch_rows = std::max(slot.max_batch_rows, next.num_rows());
    }
    if (next.num_rows() > 0) ++d;
  }
  *sink_rows = offset;
  return Status::OK();
}

}  // namespace

Result<storage::TablePtr> RunPipeline(Pipeline* pipeline, Sink* sink,
                                      TaskScheduler* scheduler,
                                      ExecutionContext* ctx) {
  RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
  QueryProfile* qp = ctx->profile();
  obs::TraceRecorder* tr = ctx->trace();
  Timer pipeline_timer;

  // Single-threaded stage resolution: schemas, expression binding, shared
  // read-only operator state.
  double build_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  RELGO_RETURN_NOT_OK(pipeline->source->Prepare(ctx));
  const Schema* schema = &pipeline->source->output_schema();
  for (auto& op : pipeline->ops) {
    RELGO_RETURN_NOT_OK(op->Prepare(*schema, ctx));
    schema = &op->output_schema();
  }
  RELGO_RETURN_NOT_OK(sink->Prepare(*schema, ctx));
  if (tr != nullptr) {
    tr->Record("pipeline_build", "pipeline", build_start,
               {{"sink", sink->label()},
                {"ops", std::to_string(pipeline->ops.size())}});
  }

  uint64_t total_rows = pipeline->source->num_rows();
  uint64_t morsels = (total_rows + kBatchRows - 1) / kBatchRows;

  // The query's fan-out width on the shared pool: slot ids (sink states,
  // profile slots) live in [0, max_workers).
  int max_workers = ResolveNumThreads(ctx->options());
  std::vector<std::unique_ptr<SinkState>> states;
  states.reserve(max_workers);
  for (int i = 0; i < max_workers; ++i) {
    states.push_back(sink->MakeState());
  }

  // Per-worker DriveMorsel level stacks, reused across its morsels.
  std::vector<std::vector<Level>> stacks(
      static_cast<size_t>(max_workers),
      std::vector<Level>(pipeline->ops.size() + 1));

  // Profiled runs accumulate rows in/out, calls and stage timings into
  // per-worker slot vectors — no shared state, so profiling never
  // serializes workers. Slot 0 is the source, slots 1..N the streaming
  // ops, slot N+1 the sink's Consume side.
  std::vector<std::vector<OperatorProfile>> worker_profs;
  if (qp != nullptr) {
    worker_profs.assign(
        static_cast<size_t>(max_workers),
        std::vector<OperatorProfile>(pipeline->ops.size() + 2));
  }

  // The morsel body, instantiated without (the default, no profiling code
  // on the hot path) and with profiling. Every non-error exit reports the
  // morsel as finished (with its contributed rows) so LIMIT early-exit can
  // track its contiguous completed prefix.
  auto morsel_body = [&](auto profiled) {
    return [&, profiled](int worker_id, uint64_t morsel) -> Status {
      // One interrupt check per morsel before any work on it, plus the
      // morsel-boundary fault site; inside the morsel every bounded batch
      // charges its rows, which checks again (see kInterruptCheckMask).
      RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
      RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kMorselBoundary));
      if (sink->Saturated()) {  // LIMIT early-exit
        sink->MorselFinished(morsel, 0);
        return Status::OK();
      }
      uint64_t begin = morsel * kBatchRows;
      uint64_t count = std::min(kBatchRows, total_rows - begin);
      uint64_t rows = 0;
      RELGO_RETURN_NOT_OK(DriveMorsel<decltype(profiled)::value>(
          *pipeline, sink, states[worker_id].get(), morsel, begin, count,
          &stacks[worker_id],
          profiled ? worker_profs[worker_id].data() : nullptr, &rows, ctx));
      sink->MorselFinished(morsel, rows);
      return Status::OK();
    };
  };

  int run_workers = 1;
  double run_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  Status run_status =
      qp == nullptr
          ? scheduler->Run(morsels, max_workers,
                           morsel_body(std::false_type()), &run_workers)
          : scheduler->Run(morsels, max_workers,
                           morsel_body(std::true_type()), &run_workers);
  if (tr != nullptr) {
    tr->Record("pipeline_run", "pipeline", run_start,
               {{"sink", sink->label()},
                {"morsels", std::to_string(morsels)},
                {"workers", std::to_string(run_workers)},
                {"status", run_status.ok() ? "ok" : run_status.ToString()}});
  }
  // Cache-publication (and any other per-source completion) hook; sources
  // ignore failed runs, so this is safe to call unconditionally. The run's
  // own error wins over a publication failure.
  Status finished_status = pipeline->source->PipelineFinished(run_status, ctx);
  RELGO_RETURN_NOT_OK(run_status);
  RELGO_RETURN_NOT_OK(finished_status);
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kSinkFinish));
  double sink_start = tr != nullptr ? obs::TraceNowMs() : 0.0;
  Timer finish_timer;
  auto finished = sink->Finish(std::move(states), scheduler, ctx);
  double finish_ms = finish_timer.ElapsedMillis();
  if (tr != nullptr) {
    tr->Record("sink_finish", "pipeline", sink_start,
               {{"sink", sink->label()}});
  }

  if (qp != nullptr) {
    // Back on the owning thread: merge the thread-local counters into the
    // query profile and record the pipeline's shape for EXPLAIN ANALYZE.
    std::vector<OperatorProfile> merged(pipeline->ops.size() + 2);
    for (const auto& slots : worker_profs) {
      for (size_t s = 0; s < slots.size(); ++s) merged[s].Accumulate(slots[s]);
    }
    if (pipeline->source_node != nullptr) {
      qp->Accumulate(pipeline->source_node, merged[0]);
    }
    for (size_t i = 0; i < pipeline->op_nodes.size(); ++i) {
      if (pipeline->op_nodes[i] != nullptr) {
        qp->Accumulate(pipeline->op_nodes[i], merged[i + 1]);
      }
    }
    if (sink->plan_node() != nullptr) {
      OperatorProfile sink_prof = merged[pipeline->ops.size() + 1];
      // The single-threaded partial merge (e.g. AggregateSink combining
      // per-worker group tables) belongs to the breaker's cost too.
      sink_prof.wall_ms += finish_ms;
      if (finished.ok()) sink_prof.rows_out = (*finished)->num_rows();
      qp->Accumulate(sink->plan_node(), sink_prof);
    }
    PipelineTrace trace;
    trace.stages.push_back(pipeline->source_node);
    for (const plan::PhysicalOp* node : pipeline->op_nodes) {
      trace.stages.push_back(node);
    }
    trace.breaker = sink->plan_node();
    trace.fused = sink->fused_node();
    trace.sink = sink->label();
    trace.morsels = morsels;
    trace.threads = run_workers;
    trace.wall_ms = pipeline_timer.ElapsedMillis();
    qp->AddPipeline(std::move(trace));
  }
  return finished;
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo
