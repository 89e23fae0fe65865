#ifndef RELGO_OPTIMIZER_QUERY_OPTIMIZER_H_
#define RELGO_OPTIMIZER_QUERY_OPTIMIZER_H_

#include "optimizer/glogue.h"
#include "optimizer/graph_optimizer.h"
#include "optimizer/relational_optimizer.h"
#include "optimizer/rules.h"

namespace relgo {
namespace optimizer {

/// The systems compared in the paper's evaluation (Sec 5.1), realized as
/// optimizer modes over one shared storage/execution substrate:
///
///  * kDuckDB     — graph-agnostic transformation + DP join ordering with
///                  heuristic selectivities, hash joins only.
///  * kGRainDB    — the same optimizer, but predefined (rid) joins are
///                  substituted at emission wherever the order allows.
///  * kUmbraLike  — graph-agnostic with sampling-based selectivities and
///                  rid joins: an advanced relational optimizer that still
///                  lacks the graph view (wco plans never materialize, as
///                  observed for Umbra on these workloads).
///  * kRelGo      — the converged optimizer: heuristic rules, cost-based
///                  graph plan (GLogue), SCAN_GRAPH_TABLE bridging, outer
///                  relational DP.
///  * kRelGoHash  — RelGo's converged join ordering, index bypassed
///                  (every graph op lowered to hash joins).
///  * kRelGoNoEI  — RelGo without EXPAND_INTERSECT (stars become
///                  "traditional multiple joins").
///  * kRelGoNoRule— RelGo without FilterIntoMatchRule / TrimAndFuseRule.
///  * kGdbmsSim   — a prototype-GDBMS stand-in (the paper used Kùzu):
///                  backtracking matcher, fixed order, no cost model.
enum class OptimizerMode {
  kDuckDB,
  kGRainDB,
  kUmbraLike,
  kRelGo,
  kRelGoHash,
  kRelGoNoEI,
  kRelGoNoRule,
  kRelGoNoFuse,    ///< FilterIntoMatchRule on, TrimAndFuseRule off (Fig 8)
  kRelGoLowOrder,  ///< RelGo restricted to low-order statistics (Sec 4.3)
  kGdbmsSim,
};

const char* ModeName(OptimizerMode mode);

/// Whether plans from this mode require the graph index at execution.
bool ModeUsesIndex(OptimizerMode mode);

struct OptimizeResult {
  plan::PhysicalOpPtr plan;
  double optimization_ms = 0.0;
};

/// Front door of the optimization framework: applies the mode's rule set,
/// optimizes the matching operator, and plans the full SPJM query.
class QueryOptimizer {
 public:
  QueryOptimizer(const storage::Catalog* catalog,
                 const graph::RgMapping* mapping,
                 const graph::GraphStats* gstats, const Glogue* glogue,
                 const TableStats* tstats)
      : catalog_(catalog),
        mapping_(mapping),
        gstats_(gstats),
        glogue_(glogue),
        tstats_(tstats),
        graph_optimizer_(mapping, catalog, gstats, glogue, tstats),
        relational_optimizer_(catalog, mapping, tstats) {}

  Result<OptimizeResult> Optimize(const plan::SpjmQuery& query,
                                  OptimizerMode mode) const;

 private:
  Result<plan::PhysicalOpPtr> OptimizeConverged(plan::SpjmQuery query,
                                                OptimizerMode mode) const;
  Result<plan::PhysicalOpPtr> OptimizeGdbmsSim(plan::SpjmQuery query) const;
  /// Prices the NAIVE_MATCH leaf of a GdbmsSim plan (EXPLAIN/Q-error
  /// bookkeeping; the mode itself plans nothing, so this runs outside the
  /// timed optimization window).
  void AnnotateNaiveMatch(const plan::SpjmQuery& query,
                          plan::PhysicalOp* op) const;

  const storage::Catalog* catalog_;
  const graph::RgMapping* mapping_;
  const graph::GraphStats* gstats_;
  const Glogue* glogue_;
  const TableStats* tstats_;
  GraphOptimizer graph_optimizer_;
  RelationalOptimizer relational_optimizer_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_QUERY_OPTIMIZER_H_
