#include "optimizer/glogue.h"

#include <algorithm>

#include "common/timer.h"

namespace relgo {
namespace optimizer {

using graph::Direction;
using pattern::PatternGraph;

namespace {

/// One way an edge label can be anchored at a vertex label.
struct Incidence {
  int edge_label;
  Direction dir;          ///< kOut: anchor is the edge's source
  int anchor_label;       ///< vertex label at the anchor
  int other_label;        ///< vertex label at the far end
};

std::vector<Incidence> AllIncidences(const graph::RgMapping& mapping) {
  std::vector<Incidence> out;
  for (int e = 0; e < static_cast<int>(mapping.num_edge_labels()); ++e) {
    int src = mapping.EdgeSrcLabelId(e);
    int dst = mapping.EdgeDstLabelId(e);
    out.push_back({e, Direction::kOut, src, dst});
    out.push_back({e, Direction::kIn, dst, src});
  }
  return out;
}

/// Builds the wedge pattern: anchor vertex with two incident edges.
PatternGraph WedgePattern(const Incidence& a, const Incidence& b) {
  PatternGraph p;
  int center = p.AddVertex(a.anchor_label);
  int x = p.AddVertex(a.other_label);
  int y = p.AddVertex(b.other_label);
  if (a.dir == Direction::kOut) {
    p.AddEdge(a.edge_label, center, x);
  } else {
    p.AddEdge(a.edge_label, x, center);
  }
  if (b.dir == Direction::kOut) {
    p.AddEdge(b.edge_label, center, y);
  } else {
    p.AddEdge(b.edge_label, y, center);
  }
  return p;
}

/// Builds the triangle pattern closed by `ac` with legs `ab` (anchored at
/// a) and `bc` (anchored at b).
PatternGraph TrianglePattern(int ac_label, const Incidence& ab,
                             const Incidence& bc) {
  PatternGraph p;
  int a = p.AddVertex(ab.anchor_label);
  int b = p.AddVertex(ab.other_label);
  int c = p.AddVertex(bc.other_label);
  p.AddEdge(ac_label, a, c);
  if (ab.dir == Direction::kOut) {
    p.AddEdge(ab.edge_label, a, b);
  } else {
    p.AddEdge(ab.edge_label, b, a);
  }
  if (bc.dir == Direction::kOut) {
    p.AddEdge(bc.edge_label, b, c);
  } else {
    p.AddEdge(bc.edge_label, c, b);
  }
  return p;
}

/// Sum over common neighbors of the product of parallel-edge run lengths
/// (homomorphism count of the closing wedge).
uint64_t IntersectCount(const graph::AdjacencyList& l1,
                        const graph::AdjacencyList& l2) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < l1.size && j < l2.size) {
    uint64_t a = l1.neighbors[i], b = l2.neighbors[j];
    if (a < b) {
      ++i;
    } else if (b < a) {
      ++j;
    } else {
      size_t ri = i, rj = j;
      while (ri < l1.size && l1.neighbors[ri] == a) ++ri;
      while (rj < l2.size && l2.neighbors[rj] == a) ++rj;
      count += static_cast<uint64_t>(ri - i) * (rj - j);
      i = ri;
      j = rj;
    }
  }
  return count;
}

}  // namespace

Status Glogue::Build(const storage::Catalog& catalog,
                     const graph::RgMapping& mapping,
                     const graph::GraphIndex& index,
                     const graph::GraphStats& stats, GlogueOptions options) {
  Timer timer;
  cards_.clear();
  max_vertices_ = options.max_pattern_vertices;

  // -- 1-vertex patterns (exact). --------------------------------------------
  for (int v = 0; v < static_cast<int>(mapping.num_vertex_labels()); ++v) {
    PatternGraph p;
    p.AddVertex(v);
    cards_[p.CanonicalCode()] = static_cast<double>(stats.NumVertices(v));
  }
  if (max_vertices_ < 2) {
    built_ = true;
    build_time_ms_ = timer.ElapsedMillis();
    return Status::OK();
  }

  // -- Single-edge patterns (exact). ------------------------------------------
  for (int e = 0; e < static_cast<int>(mapping.num_edge_labels()); ++e) {
    PatternGraph p;
    int s = p.AddVertex(mapping.EdgeSrcLabelId(e));
    int t = p.AddVertex(mapping.EdgeDstLabelId(e));
    p.AddEdge(e, s, t);
    cards_[p.CanonicalCode()] = static_cast<double>(stats.NumEdges(e));
  }
  if (max_vertices_ < 3) {
    built_ = true;
    build_time_ms_ = timer.ElapsedMillis();
    return Status::OK();
  }

  std::vector<Incidence> incidences = AllIncidences(mapping);

  // -- Wedges: exact degree-product pass over the anchor vertex table. --------
  for (size_t i = 0; i < incidences.size(); ++i) {
    for (size_t j = i; j < incidences.size(); ++j) {
      const Incidence& a = incidences[i];
      const Incidence& b = incidences[j];
      if (a.anchor_label != b.anchor_label) continue;
      PatternGraph wedge = WedgePattern(a, b);
      std::string code = wedge.CanonicalCode();
      if (cards_.count(code)) continue;
      RELGO_ASSIGN_OR_RETURN(
          auto vtable,
          catalog.GetTable(mapping.vertex_mapping(a.anchor_label).table));
      double total = 0.0;
      for (uint64_t v = 0; v < vtable->num_rows(); ++v) {
        total += static_cast<double>(index.Degree(a.edge_label, a.dir, v)) *
                 static_cast<double>(index.Degree(b.edge_label, b.dir, v));
      }
      cards_[code] = total;
    }
  }

  // -- Triangles: sparsified counting over the closing edge. ------------------
  for (int ac = 0; ac < static_cast<int>(mapping.num_edge_labels()); ++ac) {
    int a_label = mapping.EdgeSrcLabelId(ac);
    int c_label = mapping.EdgeDstLabelId(ac);
    for (const Incidence& ab : incidences) {
      if (ab.anchor_label != a_label) continue;
      for (const Incidence& bc : incidences) {
        if (bc.anchor_label != ab.other_label) continue;
        if (bc.other_label != c_label) continue;
        PatternGraph tri = TrianglePattern(ac, ab, bc);
        std::string code = tri.CanonicalCode();
        if (cards_.count(code)) continue;

        uint64_t m = index.NumEdges(ac);
        if (m == 0) {
          cards_[code] = 0.0;
          continue;
        }
        uint64_t target =
            std::min<uint64_t>(options.max_sampled_edges,
                               std::max<uint64_t>(
                                   1, static_cast<uint64_t>(
                                          static_cast<double>(m) *
                                          options.sample_rate)));
        uint64_t stride = std::max<uint64_t>(1, m / target);
        double total = 0.0;
        uint64_t sampled = 0;
        // The b-side adjacency of c runs against bc's orientation.
        Direction c_dir =
            bc.dir == Direction::kOut ? Direction::kIn : Direction::kOut;
        for (uint64_t r = 0; r < m; r += stride) {
          ++sampled;
          uint64_t va = index.EdgeSource(ac, r);
          uint64_t vc = index.EdgeTarget(ac, r);
          graph::AdjacencyList l1 =
              index.Neighbors(ab.edge_label, ab.dir, va);
          graph::AdjacencyList l2 = index.Neighbors(bc.edge_label, c_dir, vc);
          total += static_cast<double>(IntersectCount(l1, l2));
        }
        cards_[code] =
            total * (static_cast<double>(m) / static_cast<double>(sampled));
      }
    }
  }

  built_ = true;
  build_time_ms_ = timer.ElapsedMillis();
  return Status::OK();
}

double Glogue::Lookup(const PatternGraph& p) const {
  if (p.num_vertices() > max_vertices_) return -1.0;
  auto it = cards_.find(p.CanonicalCode());
  return it == cards_.end() ? -1.0 : it->second;
}

}  // namespace optimizer
}  // namespace relgo
