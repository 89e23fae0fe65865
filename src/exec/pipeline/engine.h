#ifndef RELGO_EXEC_PIPELINE_ENGINE_H_
#define RELGO_EXEC_PIPELINE_ENGINE_H_

#include "exec/context.h"
#include "plan/physical_plan.h"
#include "storage/table.h"

namespace relgo {
namespace exec {
namespace pipeline {

/// Entry point of the morsel-driven vectorized engine (the
/// EngineKind::kPipeline runtime).
///
/// The physical plan tree is decomposed into pipelines split at breakers:
/// every maximal chain of streaming operators (scans, filters, projections,
/// EXPAND / EXPAND_INTERSECT / EDGE_VERIFY / VERTEX_FILTER / NOT_EQUAL,
/// hash-join probes, the SCAN_GRAPH_TABLE bridge) runs batch-at-a-time over
/// morsels of its source, while breakers (hash-join build sides, hash
/// aggregation, ORDER BY, LIMIT) materialize between pipelines. Each
/// pipeline is one job on the context's shared worker pool (the Database's
/// process-wide TaskScheduler), fanned out to at most
/// ResolveNumThreads(ctx->options()) workers; concurrent queries
/// interleave their jobs on the same pool threads.
///
/// Semantics match the reference interpreter exec::Executor::Run exactly —
/// same rows in the same order, same row-budget charging, same
/// kOutOfMemory / kTimeout behavior — which pipeline_parity_test.cc
/// enforces differentially.
Result<storage::TablePtr> Run(const plan::PhysicalOp& op,
                              ExecutionContext* ctx);

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_ENGINE_H_
