#ifndef RELGO_OPTIMIZER_CARDINALITY_H_
#define RELGO_OPTIMIZER_CARDINALITY_H_

#include <unordered_map>

#include "graph/graph_stats.h"
#include "optimizer/glogue.h"
#include "optimizer/stats.h"
#include "pattern/pattern_graph.h"

namespace relgo {
namespace optimizer {

struct CardinalityOptions {
  /// When false, only low-order statistics (relation cardinalities and
  /// average degrees) are consulted — the degraded mode the paper notes
  /// RelGo still functions in, at reduced plan quality (Sec 4.3).
  bool use_high_order = true;
  size_t predicate_sample = 1024;
};

/// Estimates |M(P')| for sub-patterns of one query pattern, combining:
///  * GLogue high-order statistics for sub-patterns of <= k vertices
///    (including real triangle counts, the key to ranking wco plans);
///  * low-order extrapolation beyond k: average-degree expansion for the
///    first connecting edge, independence closing probabilities for
///    additional edges, with a triangle correction where GLogue covers the
///    closing shape;
///  * per-element predicate selectivities (sampled), so FilterIntoMatchRule
///    constraints reduce estimates before plan search (Sec 4.2.3).
class CardinalityEstimator {
 public:
  CardinalityEstimator(const pattern::PatternGraph* p, const Glogue* glogue,
                       const graph::GraphStats* gstats,
                       const graph::RgMapping* mapping,
                       const storage::Catalog* catalog,
                       const TableStats* tstats,
                       CardinalityOptions options = {});

  /// Estimated matches of the induced sub-pattern on `mask`.
  /// Logically read-only; the memo caches are mutable.
  double Estimate(pattern::VSet mask) const;

 private:
  double Structural(pattern::VSet mask) const;

  const pattern::PatternGraph* p_;
  const Glogue* glogue_;
  const graph::GraphStats* gstats_;
  const graph::RgMapping* mapping_;
  const storage::Catalog* catalog_;
  CardinalityOptions options_;
  std::vector<double> vertex_sel_;
  std::vector<double> edge_sel_;
  mutable std::unordered_map<pattern::VSet, double> memo_;
  mutable std::unordered_map<pattern::VSet, double> structural_memo_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_CARDINALITY_H_
