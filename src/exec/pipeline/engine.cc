#include "exec/pipeline/engine.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/timer.h"
#include "exec/naive_matcher.h"
#include "exec/pipeline/pipeline.h"

namespace relgo {
namespace exec {
namespace pipeline {

using plan::OpKind;
using plan::PhysicalOp;
using storage::TablePtr;

namespace {

/// Operators that run batch-at-a-time inside a pipeline. Everything else is
/// either a pipeline source (leaf scans) or a breaker that materializes.
bool IsStreamable(OpKind kind) {
  switch (kind) {
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kHashJoin:       // probe side streams; build side breaks
    case OpKind::kRidLookupJoin:
    case OpKind::kRidExpandJoin:
    case OpKind::kExpandEdge:
    case OpKind::kGetVertex:
    case OpKind::kExpand:
    case OpKind::kExpandIntersect:
    case OpKind::kEdgeVerify:
    case OpKind::kPatternJoin:    // probe side streams; build side breaks
    case OpKind::kVertexFilter:
    case OpKind::kNotEqual:
    case OpKind::kScanGraphTable:  // pi-hat streams over the graph sub-plan
      return true;
    default:
      return false;
  }
}

Result<TablePtr> ExecNode(const PhysicalOp& op, ExecutionContext* ctx,
                          TaskScheduler* scheduler);
Result<Pipeline> BuildPipeline(const PhysicalOp& op, ExecutionContext* ctx,
                               TaskScheduler* scheduler);

/// A join's materialized build side plus the hash table constructed over
/// it (partition-parallel, HashBuildSink).
struct BuiltSide {
  TablePtr table;
  std::shared_ptr<const JoinHashTable> ht;
};

/// Executes a join's build subtree (pipeline breaker) into a HashBuildSink:
/// the build rows are materialized by parallel morsels and the shared
/// JoinHashTable is constructed partition-parallel before the probe
/// pipeline is assembled. `join_node` receives the build wall time in the
/// query profile.
Result<BuiltSide> ExecBuildSide(const PhysicalOp& op,
                                const std::vector<std::string>& keys,
                                const PhysicalOp* join_node,
                                ExecutionContext* ctx,
                                TaskScheduler* scheduler) {
  RELGO_ASSIGN_OR_RETURN(auto pipeline, BuildPipeline(op, ctx, scheduler));
  HashBuildSink sink(keys, join_node);
  RELGO_ASSIGN_OR_RETURN(auto table,
                         RunPipeline(&pipeline, &sink, scheduler, ctx));
  return BuiltSide{std::move(table), sink.hash_table()};
}

/// Builds the streaming operator for one plan node. Join builds recurse
/// into ExecBuildSide, materializing + hashing the build side (pipeline
/// breaker) before the probe pipeline is assembled.
Result<StreamingOpPtr> MakeStreamingOp(const PhysicalOp& op,
                                       ExecutionContext* ctx,
                                       TaskScheduler* scheduler) {
  switch (op.kind) {
    case OpKind::kFilter:
      return StreamingOpPtr(
          new FilterOp(static_cast<const plan::PhysFilter&>(op)));
    case OpKind::kProject:
      return StreamingOpPtr(
          new ProjectOp(static_cast<const plan::PhysProject&>(op)));
    case OpKind::kHashJoin: {
      const auto& join = static_cast<const plan::PhysHashJoin&>(op);
      RELGO_ASSIGN_OR_RETURN(
          auto built, ExecBuildSide(*op.children[1], join.right_keys, &op,
                                    ctx, scheduler));
      return StreamingOpPtr(new HashJoinProbeOp(
          join.left_keys, {}, std::move(built.table), std::move(built.ht)));
    }
    case OpKind::kPatternJoin: {
      const auto& join = static_cast<const plan::PhysPatternJoin&>(op);
      RELGO_ASSIGN_OR_RETURN(
          auto built, ExecBuildSide(*op.children[1], join.common_vars, &op,
                                    ctx, scheduler));
      return StreamingOpPtr(new HashJoinProbeOp(
          join.common_vars, join.common_vars, std::move(built.table),
          std::move(built.ht)));
    }
    case OpKind::kRidLookupJoin:
      return StreamingOpPtr(new RidLookupJoinOp(
          static_cast<const plan::PhysRidLookupJoin&>(op)));
    case OpKind::kRidExpandJoin:
      return StreamingOpPtr(new RidExpandJoinOp(
          static_cast<const plan::PhysRidExpandJoin&>(op)));
    case OpKind::kExpandEdge:
      return StreamingOpPtr(
          new ExpandEdgeOp(static_cast<const plan::PhysExpandEdge&>(op)));
    case OpKind::kGetVertex:
      return StreamingOpPtr(
          new GetVertexOp(static_cast<const plan::PhysGetVertex&>(op)));
    case OpKind::kExpand:
      return StreamingOpPtr(
          new ExpandOp(static_cast<const plan::PhysExpand&>(op)));
    case OpKind::kExpandIntersect:
      return StreamingOpPtr(new ExpandIntersectOp(
          static_cast<const plan::PhysExpandIntersect&>(op)));
    case OpKind::kEdgeVerify:
      return StreamingOpPtr(
          new EdgeVerifyOp(static_cast<const plan::PhysEdgeVerify&>(op)));
    case OpKind::kVertexFilter:
      return StreamingOpPtr(
          new VertexFilterOp(static_cast<const plan::PhysVertexFilter&>(op)));
    case OpKind::kNotEqual:
      return StreamingOpPtr(
          new NotEqualOp(static_cast<const plan::PhysNotEqual&>(op)));
    case OpKind::kScanGraphTable:
      return StreamingOpPtr(new ScanGraphTableOp(
          static_cast<const plan::PhysScanGraphTable&>(op)));
    default:
      return Status::Internal(std::string("not a streaming operator: ") +
                              plan::OpKindName(op.kind));
  }
}

/// Decomposes the maximal streaming chain ending at `op` into a pipeline:
/// walks probe-side children while operators are streamable, then turns
/// the remaining node into the source (leaf scan, or a materialized
/// breaker result).
Result<Pipeline> BuildPipeline(const PhysicalOp& op, ExecutionContext* ctx,
                               TaskScheduler* scheduler) {
  std::vector<const PhysicalOp*> chain;
  const PhysicalOp* cur = &op;
  while (IsStreamable(cur->kind)) {
    chain.push_back(cur);
    cur = cur->children[0].get();
  }

  Pipeline pipeline;
  switch (cur->kind) {
    case OpKind::kScanTable:
      pipeline.source = std::make_unique<ScanTableSource>(
          static_cast<const plan::PhysScanTable&>(*cur));
      pipeline.source_node = cur;
      break;
    case OpKind::kScanVertex:
      pipeline.source = std::make_unique<ScanVertexSource>(
          static_cast<const plan::PhysScanVertex&>(*cur));
      pipeline.source_node = cur;
      break;
    default: {
      // Breaker below: materialize its subtree and stream the result. Its
      // plan nodes were profiled by the breaker's own pipelines, so the
      // TableSource carries no plan node.
      RELGO_ASSIGN_OR_RETURN(auto table, ExecNode(*cur, ctx, scheduler));
      pipeline.source = std::make_unique<TableSource>(std::move(table));
      break;
    }
  }
  // chain was collected top-down; operators run bottom-up.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    RELGO_ASSIGN_OR_RETURN(auto sop, MakeStreamingOp(**it, ctx, scheduler));
    pipeline.ops.push_back(std::move(sop));
    pipeline.op_nodes.push_back(*it);
  }
  return pipeline;
}

// ---------------------------------------------------------------------------
// Late materialization at the graph->relational bridge
// ---------------------------------------------------------------------------
//
// A pipeline ending in a TopKSink keeps at most k of its rows (or only
// reorders them), so a property that nothing reads before the sink is
// wasted work for every row the sink drops. DeferBridgeColumns has pi-hat
// stream the binding row id for each such property, and GatherDeferred
// reads the properties from the base tables for the kept rows after
// Finish. A top-k sink's sort keys are deferred too: it ranks them through
// their row ids (RankSortKeys), and its running k-th key fences rows off
// upstream. A full sort keeps its keys eager, since its merge compares
// every key O(log n) times and random row-id reads would cost more than
// gathering each key once. A pipeline ending in an AggregateSink defers
// its group keys as well: the sink encodes each one from the base column
// at the row id (AggregateSink::GroupKeysThrough), so no key property is
// gathered at all, while MIN/MAX/SUM inputs stay eager. All of it acts on
// this execution's operator instances only: the plan, the plan cache and
// the reference interpreter never see the deferral or the fence.

/// Defers every projected property of the pipeline's SCAN_GRAPH_TABLE that
/// neither the sink reads from its own slots (`eager`: a full sort's keys,
/// an aggregate's MIN/MAX/SUM inputs) nor an operator between pi-hat and
/// the sink reads (filter inputs, followed through PhysProject renames).
/// Only Project and Filter may sit between the two; any other operator, or
/// no pi-hat at all, defers nothing. Returns the pi-hat's index in
/// pipeline->ops, or -1 when nothing was deferred.
int DeferBridgeColumns(Pipeline* pipeline,
                       const std::vector<std::string>& eager) {
  std::set<std::string> read(eager.begin(), eager.end());
  for (size_t i = pipeline->ops.size(); i-- > 0;) {
    const PhysicalOp& node = *pipeline->op_nodes[i];
    switch (node.kind) {
      case OpKind::kFilter: {
        const auto& filter = static_cast<const plan::PhysFilter&>(node);
        std::vector<std::string> cols;
        if (filter.predicate) filter.predicate->CollectColumns(&cols);
        read.insert(cols.begin(), cols.end());
        break;
      }
      case OpKind::kProject: {
        std::set<std::string> below;
        for (const auto& [from, to] :
             static_cast<const plan::PhysProject&>(node).columns) {
          if (read.count(to) > 0) below.insert(from);
        }
        read = std::move(below);
        break;
      }
      case OpKind::kScanGraphTable: {
        std::set<std::string> deferred;
        for (const auto& proj :
             static_cast<const plan::PhysScanGraphTable&>(node).projections) {
          if (proj.column != "$rid" && read.count(proj.output_name) == 0) {
            deferred.insert(proj.output_name);
          }
        }
        if (deferred.empty()) return -1;
        static_cast<ScanGraphTableOp*>(pipeline->ops[i].get())
            ->Defer(std::move(deferred));
        return static_cast<int>(i);
      }
      default:
        return -1;
    }
  }
  return -1;
}

/// The name that the sink's input column `name` had at the output of the
/// pi-hat at pipeline.ops[bridge]: the Project renames between the two,
/// undone top-down.
std::string PiHatName(const Pipeline& pipeline, size_t bridge,
                      std::string name) {
  for (size_t i = pipeline.ops.size() - 1; i > bridge; --i) {
    const PhysicalOp& node = *pipeline.op_nodes[i];
    if (node.kind != OpKind::kProject) continue;
    for (const auto& [from, to] :
         static_cast<const plan::PhysProject&>(node).columns) {
      if (to == name) {
        name = from;
        break;
      }
    }
  }
  return name;
}

/// Sets the top-k `fence` on the stage below `bridge` that binds `var`:
/// the ScanVertex source, or an EXPAND, GET_VERTEX or EXPAND_INTERSECT
/// with `var` as its target, or any binder with `var` as its edge, and
/// returns true. Returns false, leaving the pipeline unfenced, when none
/// of them binds it (a var from a materialized breaker or a join build
/// side). A null `fence` sets nothing: the call only finds the stage.
bool FenceBinder(Pipeline* pipeline, size_t bridge, const std::string& var,
                 const TopKFence* fence) {
  const PhysicalOp* source = pipeline->source_node;
  if (source != nullptr && source->kind == OpKind::kScanVertex &&
      static_cast<const plan::PhysScanVertex&>(*source).var == var) {
    if (fence != nullptr) {
      static_cast<ScanVertexSource*>(pipeline->source.get())->SetFence(fence);
    }
    return true;
  }
  for (size_t i = 0; i < bridge; ++i) {
    const PhysicalOp& node = *pipeline->op_nodes[i];
    bool binds = false;
    switch (node.kind) {
      case OpKind::kExpand: {
        const auto& op = static_cast<const plan::PhysExpand&>(node);
        binds = op.to_var == var || op.edge_var == var;
        break;
      }
      case OpKind::kGetVertex:
        binds = static_cast<const plan::PhysGetVertex&>(node).to_var == var;
        break;
      case OpKind::kExpandEdge:
        binds = static_cast<const plan::PhysExpandEdge&>(node).edge_var == var;
        break;
      case OpKind::kExpandIntersect: {
        const auto& op = static_cast<const plan::PhysExpandIntersect&>(node);
        binds = op.to_var == var ||
                std::find(op.edge_vars.begin(), op.edge_vars.end(), var) !=
                    op.edge_vars.end();
        break;
      }
      case OpKind::kEdgeVerify:
        binds = static_cast<const plan::PhysEdgeVerify&>(node).edge_var == var;
        break;
      default:
        break;
    }
    if (binds) {
      if (fence != nullptr) {
        static_cast<BinderOp*>(pipeline->ops[i].get())->SetFence(fence, var);
      }
      return true;
    }
  }
  return false;
}

/// Lets the top-k `sink` rank the sort keys that the deferred pi-hat at
/// pipeline->ops[bridge] streams as row ids, and, when the run is not
/// profiled, sets the sink's fence on the stage that binds the first key's
/// variable (the fence arms itself in the sink's Prepare). A profiled run
/// sets none and notes on the profile that a stage would have been fenced.
void RankSortKeys(Pipeline* pipeline, size_t bridge,
                  const plan::PhysOrderBy& order, TopKSink* sink,
                  ExecutionContext* ctx) {
  const auto* pi_hat =
      static_cast<const ScanGraphTableOp*>(pipeline->ops[bridge].get());
  std::vector<std::string> names;
  for (const auto& key : order.keys) {
    names.push_back(PiHatName(*pipeline, bridge, key.column));
  }
  std::string first = names[0];
  sink->RankKeysThrough(pi_hat, std::move(names));
  if (!pi_hat->Defers(first)) return;
  const auto& node =
      static_cast<const plan::PhysScanGraphTable&>(*pipeline->op_nodes[bridge]);
  QueryProfile* profile = ctx->profile();
  for (const auto& proj : node.projections) {
    if (proj.output_name == first) {
      if (FenceBinder(pipeline, bridge, proj.var,
                      profile == nullptr ? sink->fence() : nullptr) &&
          profile != nullptr) {
        profile->NoteUnfencedTopK();
      }
      return;
    }
  }
}

/// Replaces the row-id columns that the deferred pi-hat at
/// pipeline.ops[bridge] left in the sink's result with the properties they
/// stand for, gathered for the kept rows only. The wall time is charged to
/// the SCAN_GRAPH_TABLE node's self time (its row counts stay as the
/// pipeline recorded them) and reported as the "late gather" footer.
TablePtr GatherDeferred(const Pipeline& pipeline, size_t bridge,
                        TablePtr kept, ExecutionContext* ctx) {
  Timer timer;
  const auto& pi_hat =
      static_cast<const ScanGraphTableOp&>(*pipeline.ops[bridge]);
  // Per result column, the base column its row ids stand for (null when
  // the column streamed eagerly).
  std::vector<const storage::Column*> bases;
  for (const storage::ColumnDef& def : kept->schema().columns()) {
    bases.push_back(
        pi_hat.DeferredColumn(PiHatName(pipeline, bridge, def.name)));
  }
  uint64_t gathered = static_cast<uint64_t>(
      bases.size() - std::count(bases.begin(), bases.end(), nullptr));
  TablePtr out = kept;
  if (gathered > 0) {
    storage::Schema schema;
    for (size_t c = 0; c < bases.size(); ++c) {
      storage::ColumnDef def = kept->schema().column(c);
      if (bases[c] != nullptr) def.type = bases[c]->type();
      (void)schema.AddColumn(std::move(def));
    }
    out = std::make_shared<storage::Table>(kept->name(), std::move(schema));
    for (size_t c = 0; c < bases.size(); ++c) {
      out->column(c) = bases[c] != nullptr
                           ? bases[c]->GatherRowIds(kept->column(c))
                           : std::move(kept->column(c));
    }
    out->FinishBulkAppend();
  }
  if (QueryProfile* qp = ctx->profile()) {
    double ms = timer.ElapsedMillis();
    OperatorProfile self;
    self.wall_ms = ms;
    qp->Accumulate(pipeline.op_nodes[bridge], self);
    qp->AddLateGather(gathered, out->num_rows(), ms);
  }
  return out;
}

/// Runs a pipeline into a TopKSink (ORDER BY + LIMIT, plain LIMIT or plain
/// ORDER BY) with late materialization at the bridge and, for top-k, the
/// fence pushed down to the first sort key's binder.
Result<TablePtr> RunTopK(Pipeline* pipeline, TopKSink* sink,
                         const plan::PhysOrderBy* order,
                         ExecutionContext* ctx, TaskScheduler* scheduler) {
  const bool top_k = sink->HeapMode();
  std::vector<std::string> eager;
  if (!top_k && order != nullptr) {
    for (const auto& key : order->keys) eager.push_back(key.column);
  }
  int deferred = DeferBridgeColumns(pipeline, eager);
  if (deferred < 0) return RunPipeline(pipeline, sink, scheduler, ctx);
  const auto bridge = static_cast<size_t>(deferred);
  if (top_k && !order->keys.empty()) {
    RankSortKeys(pipeline, bridge, *order, sink, ctx);
  }
  RELGO_ASSIGN_OR_RETURN(auto kept,
                         RunPipeline(pipeline, sink, scheduler, ctx));
  return GatherDeferred(*pipeline, bridge, std::move(kept), ctx);
}

/// Runs the streaming chain ending at `op` into a fresh materialize sink.
Result<TablePtr> RunToTable(const PhysicalOp& op, const char* name,
                            ExecutionContext* ctx, TaskScheduler* scheduler) {
  RELGO_ASSIGN_OR_RETURN(auto pipeline, BuildPipeline(op, ctx, scheduler));
  MaterializeSink sink(name);
  return RunPipeline(&pipeline, &sink, scheduler, ctx);
}

/// Profiles one breaker step that materializes outside any pipeline
/// (NAIVE_MATCH only — ORDER BY / LIMIT run inside pipelines as TopKSink):
/// records the node's counters and a stage-less pipeline trace so EXPLAIN
/// ANALYZE shows it between the pipelines it separates. No-op when
/// profiling is off.
Result<TablePtr> RecordBreaker(const PhysicalOp& op, uint64_t rows_in,
                               double wall_ms, Result<TablePtr> result,
                               ExecutionContext* ctx) {
  QueryProfile* qp = ctx->profile();
  if (qp == nullptr) return result;
  OperatorProfile prof;
  prof.rows_in = rows_in;
  prof.invocations = 1;
  prof.wall_ms = wall_ms;
  if (result.ok()) prof.rows_out = (*result)->num_rows();
  qp->Accumulate(&op, prof);
  PipelineTrace trace;
  trace.breaker = &op;
  trace.sink = plan::OpKindName(op.kind);
  trace.wall_ms = wall_ms;
  qp->AddPipeline(std::move(trace));
  return result;
}

Result<TablePtr> ExecNode(const PhysicalOp& op, ExecutionContext* ctx,
                          TaskScheduler* scheduler) {
  RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
  switch (op.kind) {
    case OpKind::kHashAggregate: {
      const auto& agg = static_cast<const plan::PhysHashAggregate&>(op);
      RELGO_ASSIGN_OR_RETURN(auto pipeline,
                             BuildPipeline(*op.children[0], ctx, scheduler));
      AggregateSink sink(agg);
      // Group keys may stream as row ids; MIN/MAX/SUM inputs stay eager.
      std::vector<std::string> inputs;
      for (const auto& a : agg.aggregates) {
        if (a.func != plan::AggFunc::kCount) inputs.push_back(a.input_column);
      }
      int bridge = DeferBridgeColumns(&pipeline, inputs);
      if (bridge >= 0) {
        std::vector<std::string> names;
        for (const auto& key : agg.group_by) {
          names.push_back(
              PiHatName(pipeline, static_cast<size_t>(bridge), key));
        }
        sink.GroupKeysThrough(
            static_cast<const ScanGraphTableOp*>(pipeline.ops[bridge].get()),
            std::move(names));
      }
      return RunPipeline(&pipeline, &sink, scheduler, ctx);
    }
    case OpKind::kOrderBy: {
      // Full ORDER BY runs inside the pipeline as a parallel-merge sort
      // sink (no materializing post-op).
      const auto& order = static_cast<const plan::PhysOrderBy&>(op);
      RELGO_ASSIGN_OR_RETURN(auto pipeline,
                             BuildPipeline(*op.children[0], ctx, scheduler));
      TopKSink sink(&order, nullptr, /*limit=*/-1);
      return RunTopK(&pipeline, &sink, &order, ctx, scheduler);
    }
    case OpKind::kLimit: {
      const auto& limit = static_cast<const plan::PhysLimit&>(op);
      const PhysicalOp* child = op.children[0].get();
      if (child->kind == OpKind::kOrderBy) {
        // ORDER BY + LIMIT fuse into one top-k sink over the pipeline
        // below the sort: per-worker bounded heaps merged at finish.
        const auto& order = static_cast<const plan::PhysOrderBy&>(*child);
        RELGO_ASSIGN_OR_RETURN(
            auto pipeline,
            BuildPipeline(*child->children[0], ctx, scheduler));
        TopKSink sink(&order, &limit, limit.limit);
        return RunTopK(&pipeline, &sink, &order, ctx, scheduler);
      }
      // Plain LIMIT: first-k in morsel order, with exact early-exit.
      RELGO_ASSIGN_OR_RETURN(auto pipeline,
                             BuildPipeline(*child, ctx, scheduler));
      TopKSink sink(nullptr, &limit, limit.limit);
      return RunTopK(&pipeline, &sink, nullptr, ctx, scheduler);
    }
    case OpKind::kNaiveMatch: {
      // The backtracking matcher is inherently sequential; it runs as its
      // own (single-morsel) leaf.
      Timer timer;
      auto matched = NaiveMatch(
          static_cast<const plan::PhysNaiveMatch&>(op).pattern, ctx);
      return RecordBreaker(op, 0, timer.ElapsedMillis(), std::move(matched),
                           ctx);
    }
    default:
      return RunToTable(op, "pipeline", ctx, scheduler);
  }
}

}  // namespace

Result<TablePtr> Run(const PhysicalOp& op, ExecutionContext* ctx) {
  // Queries served through a Database share its process-wide worker pool;
  // standalone executions (unit tests driving the engine directly) fall
  // back to a private pool for the duration of the query.
  if (TaskScheduler* pool = ctx->scheduler()) {
    return ExecNode(op, ctx, pool);
  }
  TaskScheduler local;
  return ExecNode(op, ctx, &local);
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo
