#ifndef RELGO_OPTIMIZER_GRAPH_OPTIMIZER_H_
#define RELGO_OPTIMIZER_GRAPH_OPTIMIZER_H_

#include <set>

#include "optimizer/cardinality.h"
#include "plan/physical_plan.h"

namespace relgo {
namespace optimizer {

/// Controls which physical implementations the graph plan search may use;
/// the RelGo ablation variants of Sec 5.2 flip these.
struct GraphOptimizerOptions {
  /// Graph index available: EXPAND/EXPAND_INTERSECT over CSR. When false
  /// (RelGoHash), every operation lowers to hash joins (Case II reduction).
  bool use_index = true;
  /// Allow EXPAND_INTERSECT for complete stars (RelGoNoEI sets false and
  /// lowers stars to expand + edge-verify "traditional multiple joins").
  bool use_expand_intersect = true;
  /// TrimAndFuseRule's physical half: fuse EXPAND_EDGE + GET_VERTEX into
  /// EXPAND whenever the edge binding is not needed downstream.
  bool fuse_expand = true;
  /// Consult GLogue high-order statistics (else low-order only).
  bool use_high_order = true;
  /// Safety bound for the decomposition DP, whose tables hold 2^n
  /// entries; Optimize rejects larger patterns (and any of 32 or more
  /// vertices) with InvalidArgument.
  int max_pattern_vertices = 14;
};

/// The optimized graph sub-plan for M(P): a binding-table producer plus
/// the optimizer's cardinality/cost estimates (consumed by the outer
/// relational optimizer when it places SCAN_GRAPH_TABLE).
struct GraphPlanResult {
  plan::PhysicalOpPtr root;
  double estimated_cardinality = 0.0;
  double estimated_cost = 0.0;
};

/// Cost-based top-down search over decomposition trees (Sec 3.1.2 +
/// Sec 4.2.1, adapting GLogS).
///
/// Every DP state is a connected *induced* sub-pattern (a vertex bitmask of
/// the query pattern). Transitions:
///  * star removal — the right child is a complete star MMC rooted at the
///    removed vertex; lowered to EXPAND(+GET_VERTEX) for single edges and
///    EXPAND_INTERSECT for k >= 2 (worst-case optimal);
///  * binary join — two overlapping connected induced sub-patterns covering
///    all edges; lowered to PATTERN_JOIN (hash) on shared vertices *and*
///    shared edges (Eq 2's join on Vo, Eo).
///
/// Costs follow Sec 4.2.1: |M(P_l)| * avg-degree for expansions,
/// |M(P_l)| * min-degree for intersections, cardinality products for hash
/// joins, with cardinalities from the CardinalityEstimator (GLogue-backed).
class GraphOptimizer {
 public:
  GraphOptimizer(const graph::RgMapping* mapping,
                 const storage::Catalog* catalog,
                 const graph::GraphStats* gstats, const Glogue* glogue,
                 const TableStats* tstats)
      : mapping_(mapping),
        catalog_(catalog),
        gstats_(gstats),
        glogue_(glogue),
        tstats_(tstats) {}

  /// Computes the minimum-cost physical plan for M(P). `needed_edges` lists
  /// pattern edge indexes whose bindings must survive into the output
  /// binding table (because pi-hat projects them or a predicate needs
  /// them); with fuse_expand, all other edge bindings are trimmed.
  Result<GraphPlanResult> Optimize(const pattern::PatternGraph& p,
                                   const std::set<int>& needed_edges,
                                   const GraphOptimizerOptions& options) const;

 private:
  const graph::RgMapping* mapping_;
  const storage::Catalog* catalog_;
  const graph::GraphStats* gstats_;
  const Glogue* glogue_;
  const TableStats* tstats_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_GRAPH_OPTIMIZER_H_
