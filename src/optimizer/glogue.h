#ifndef RELGO_OPTIMIZER_GLOGUE_H_
#define RELGO_OPTIMIZER_GLOGUE_H_

#include <string>
#include <unordered_map>

#include "graph/graph_index.h"
#include "graph/graph_stats.h"
#include "graph/rg_mapping.h"
#include "pattern/pattern_graph.h"
#include "storage/catalog.h"

namespace relgo {
namespace optimizer {

/// Construction parameters for the GLogue catalog.
struct GlogueOptions {
  /// Largest typed sub-pattern tracked (the paper uses k = 3).
  int max_pattern_vertices = 3;
  /// Closing-edge sampling rate for triangle counting — the adaptation of
  /// GLogS's graph sparsification (Sec 4.2.1) to the relational setting.
  double sample_rate = 0.1;
  /// Hard cap on sampled closing edges per triangle shape.
  uint64_t max_sampled_edges = 50'000;
};

/// GLogue: the high-order statistics catalog of GLogS, adapted to
/// RGMapping-defined graphs (Sec 4.2.1 "GLogue Construction").
///
/// Each entry maps the canonical code of a typed pattern with at most
/// `max_pattern_vertices` vertices to its (estimated) match cardinality
/// |M(P')| under homomorphism semantics:
///  * single-vertex and single-edge patterns: exact relation cardinalities;
///  * wedges (2-edge stars): exact via a degree-product pass over the
///    VE-index;
///  * triangles: sparsified counting — sample the closing edge, intersect
///    endpoint adjacency lists, scale by the sampling rate.
class Glogue {
 public:
  Status Build(const storage::Catalog& catalog,
               const graph::RgMapping& mapping,
               const graph::GraphIndex& index,
               const graph::GraphStats& stats, GlogueOptions options = {});

  /// Cardinality of the typed pattern (predicates ignored), or a negative
  /// value when the pattern exceeds k vertices / was not enumerated.
  double Lookup(const pattern::PatternGraph& p) const;

  bool built() const { return built_; }
  size_t size() const { return cards_.size(); }

  /// Build time in milliseconds (reported in dataset statistics).
  double build_time_ms() const { return build_time_ms_; }

 private:
  std::unordered_map<std::string, double> cards_;
  int max_vertices_ = 3;
  bool built_ = false;
  double build_time_ms_ = 0.0;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_GLOGUE_H_
