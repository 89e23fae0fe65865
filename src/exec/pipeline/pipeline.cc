#include "exec/pipeline/pipeline.h"

#include <algorithm>
#include <numeric>
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
// Filtered scan sources
// ---------------------------------------------------------------------------

namespace {

/// The rows of [begin, begin + count) whose pass byte in `bits` is set, in
/// ascending order; every row of the range when `bits` is null (no
/// filter). Branchless: every row is written and the output position
/// advances by its byte (0 or 1).
template <typename Row>
std::vector<Row> SelectedRows(const uint8_t* bits, uint64_t begin,
                              uint64_t count) {
  std::vector<Row> rows(count);
  if (bits == nullptr) {
    std::iota(rows.begin(), rows.end(), static_cast<Row>(begin));
    return rows;
  }
  Row* out = rows.data();
  uint64_t n = 0;
  for (uint64_t r = begin; r < begin + count; ++r) {
    out[n] = static_cast<Row>(r);
    n += bits[r];
  }
  rows.resize(n);
  return rows;
}

}  // namespace

Status ScanTableSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(table_, ctx->catalog().GetTable(op_.table));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(table_, op_.filter, ctx));
  raw_indexes_.clear();
  output_schema_ = ScanSchema(*table_, op_.alias, op_.projected_columns,
                              op_.emit_rowid, &raw_indexes_);
  return Status::OK();
}

Status ScanTableSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                             ExecutionContext* ctx) const {
  const uint8_t* bits = bitmap_.bits();
  std::vector<uint64_t> sel = SelectedRows<uint64_t>(bits, begin, count);
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));

  if (op_.emit_rowid) {
    Column rid(LogicalType::kInt64);
    rid.Reserve(sel.size());
    for (uint64_t r : sel) rid.AppendInt(static_cast<int64_t>(r));
    out->AddOwned(std::move(rid));
  }
  bool whole_unfiltered = bits == nullptr && begin == 0 &&
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

Status ScanVertexSource::Prepare(ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(vtable_, ctx->VertexTable(op_.vertex_label));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(vtable_, op_.filter, ctx));
  output_schema_ = BindingSchema({op_.var});
  return Status::OK();
}

Status ScanVertexSource::Emit(uint64_t begin, uint64_t count, Batch* out,
                              ExecutionContext* ctx) const {
  std::vector<int64_t> ids =
      SelectedRows<int64_t>(bitmap_.bits(), begin, count);
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(ids.size()));
  if (fence_ != nullptr) {
    std::vector<int64_t>* cols[] = {&ids};
    fence_->Narrow(0, nullptr, cols, 1);
  }
  uint64_t n = ids.size();
  out->AddOwned(Column::OfInts(std::move(ids)));
  out->SetNumRows(n);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RunPipeline
// ---------------------------------------------------------------------------

namespace {

/// One level of a worker's depth-first drive through a pipeline: the input
/// batch of ops[i], how far ops[i] got through it, and the worker's
/// scratch for ops[i] (null when the operator keeps none), which lives as
/// long as the stack: one pipeline run. Level ops.size() holds the batch
/// bound for the sink.
struct Level {
  Batch batch;
  Cursor cursor;
  std::unique_ptr<OpScratch> scratch;
};

/// Runs source rows [begin, begin + count) — morsel `morsel` — through the
/// pipeline depth-first. Every bounded batch an operator emits is pushed
/// through the remaining operators into the sink before that operator
/// resumes from its cursor, so each level holds at most one live batch and
/// the only per-batch allocations are the batches themselves. `levels` is
/// the worker's reusable stack (ops.size() + 1 entries, with the
/// operators' scratch). The profiled instantiation accumulates into
/// `slots` (source, ops..., sink); the plain one carries no profiling
/// code. Returns the rows the morsel handed the sink in `*sink_rows`.
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
        pipeline.ops[d]->Process(cur.batch, &cur.cursor, cur.scratch.get(),
                                 &next, ctx));
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

  // Per-worker DriveMorsel level stacks, built on the worker's first
  // morsel (with the operators' scratch) and reused across its morsels.
  std::vector<std::vector<Level>> stacks(static_cast<size_t>(max_workers));

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
      std::vector<Level>& stack = stacks[worker_id];
      if (stack.empty()) {
        stack.resize(pipeline->ops.size() + 1);
        for (size_t d = 0; d < pipeline->ops.size(); ++d) {
          stack[d].scratch = pipeline->ops[d]->MakeScratch();
        }
      }
      uint64_t begin = morsel * kBatchRows;
      uint64_t count = std::min(kBatchRows, total_rows - begin);
      uint64_t rows = 0;
      RELGO_RETURN_NOT_OK(DriveMorsel<decltype(profiled)::value>(
          *pipeline, sink, states[worker_id].get(), morsel, begin, count,
          &stack,
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
  RELGO_RETURN_NOT_OK(run_status);
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
