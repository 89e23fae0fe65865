#ifndef RELGO_EXEC_EXECUTOR_H_
#define RELGO_EXEC_EXECUTOR_H_

#include <memory>

#include "exec/context.h"
#include "plan/physical_plan.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

/// Interprets a physical plan tree, materializing each operator's output
/// (operator-at-a-time execution). Binding-table operators (SCAN / EXPAND /
/// EXPAND_INTERSECT / PATTERN_JOIN / ...) produce tables whose int64
/// columns are row ids keyed by pattern variable; relational operators
/// produce ordinary attribute tables.
///
/// This is the reference interpreter (EngineKind::kMaterialize), not a
/// production runtime: filters evaluate row at a time through
/// Expr::EvaluateBool, joins and GROUP BY key on boxed Values, ORDER BY is
/// a stable sort over Value comparisons, and the scan cache is never
/// consulted. It shares none of the pipeline engine's accelerated
/// components (CompiledPredicate, JoinHashTable, KeyEncoder,
/// TypedColumnCompare, ScanCache), so differential tests against it can
/// see bugs in any of them.
///
/// Execution enforces the context's row budget and timeout, returning
/// kOutOfMemory / kTimeout errors that benchmark harnesses report as
/// OOM / OT, exactly as the paper's evaluation does.
class Executor {
 public:
  /// Runs `op` to completion and returns the materialized result.
  static Result<storage::TablePtr> Run(const plan::PhysicalOp& op,
                                       ExecutionContext* ctx);
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_EXECUTOR_H_
