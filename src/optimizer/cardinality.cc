#include "optimizer/cardinality.h"

#include <algorithm>

namespace relgo {
namespace optimizer {

using graph::Direction;
using pattern::Bit;
using pattern::PatternGraph;
using pattern::PopCount;
using pattern::VSet;

CardinalityEstimator::CardinalityEstimator(
    const PatternGraph* p, const Glogue* glogue,
    const graph::GraphStats* gstats, const graph::RgMapping* mapping,
    const storage::Catalog* catalog, const TableStats* tstats,
    CardinalityOptions options)
    : p_(p),
      glogue_(glogue),
      gstats_(gstats),
      mapping_(mapping),
      catalog_(catalog),
      options_(options) {
  vertex_sel_.assign(p_->num_vertices(), 1.0);
  for (int v = 0; v < p_->num_vertices(); ++v) {
    const auto& pred = p_->vertex(v).predicate;
    if (!pred) continue;
    auto table =
        catalog_->GetTable(mapping_->vertex_mapping(p_->vertex(v).label).table);
    if (table.ok()) {
      vertex_sel_[v] =
          tstats->SampledSelectivity(**table, pred, options.predicate_sample);
    }
  }
  edge_sel_.assign(p_->num_edges(), 1.0);
  for (int e = 0; e < p_->num_edges(); ++e) {
    const auto& pred = p_->edge(e).predicate;
    if (!pred) continue;
    auto table =
        catalog_->GetTable(mapping_->edge_mapping(p_->edge(e).label).table);
    if (table.ok()) {
      edge_sel_[e] =
          tstats->SampledSelectivity(**table, pred, options.predicate_sample);
    }
  }
}

double CardinalityEstimator::Estimate(VSet mask) const {
  auto it = memo_.find(mask);
  if (it != memo_.end()) return it->second;
  double card = Structural(mask);
  for (int v = 0; v < p_->num_vertices(); ++v) {
    if (mask & Bit(v)) card *= vertex_sel_[v];
  }
  for (int e : p_->InducedEdges(mask)) card *= edge_sel_[e];
  card = std::max(card, 1e-3);
  memo_[mask] = card;
  return card;
}

double CardinalityEstimator::Structural(VSet mask) const {
  auto it = structural_memo_.find(mask);
  if (it != structural_memo_.end()) return it->second;

  double result = -1.0;
  int n = PopCount(mask);

  if (n == 1) {
    int v = __builtin_ctz(mask);
    result = static_cast<double>(gstats_->NumVertices(p_->vertex(v).label));
  }

  if (result < 0 && options_.use_high_order && glogue_->built() && n <= 3) {
    // Strip predicates by re-deriving the induced typed pattern.
    PatternGraph sub = p_->Induced(mask);
    double looked = glogue_->Lookup(sub);
    if (looked >= 0) result = looked;
  }

  if (result < 0) {
    // Low-order extrapolation: remove the highest removable vertex.
    int pick = -1;
    for (int v = p_->num_vertices() - 1; v >= 0; --v) {
      if (!(mask & Bit(v))) continue;
      VSet rest = mask & ~Bit(v);
      if (rest != 0 && p_->IsConnectedInduced(rest)) {
        pick = v;
        break;
      }
    }
    if (pick < 0) {
      // Disconnected induced sub-pattern (possible during hypothetical
      // splits): product of components would be correct; approximate with
      // a large constant to discourage such shapes.
      result = 1e18;
    } else {
      VSet rest = mask & ~Bit(pick);
      double base = Structural(rest);

      // Edges between pick and rest, as (edge index, rest endpoint, dir
      // from the rest endpoint toward pick).
      struct Link {
        int edge;
        int rest_vertex;
        Direction dir;
      };
      std::vector<Link> links;
      for (int e : p_->IncidentEdges(pick)) {
        const auto& pe = p_->edge(e);
        int other = pe.src == pick ? pe.dst : pe.src;
        if (other == pick || !(rest & Bit(other))) continue;
        Direction dir =
            pe.src == pick ? Direction::kIn : Direction::kOut;
        links.push_back({e, other, dir});
      }
      if (links.empty()) {
        result = base * static_cast<double>(
                            gstats_->NumVertices(p_->vertex(pick).label));
      } else {
        // Triangle correction: exactly two links whose rest endpoints are
        // adjacent — GLogue knows the closing triangle's true frequency.
        bool corrected = false;
        if (options_.use_high_order && glogue_->built() &&
            links.size() == 2) {
          VSet tri_mask =
              Bit(pick) | Bit(links[0].rest_vertex) | Bit(links[1].rest_vertex);
          VSet base_mask = Bit(links[0].rest_vertex) |
                           Bit(links[1].rest_vertex);
          if (!p_->InducedEdges(base_mask).empty()) {
            double tri = glogue_->Lookup(p_->Induced(tri_mask));
            double pair = glogue_->Lookup(p_->Induced(base_mask));
            if (tri >= 0 && pair > 0) {
              result = base * (tri / pair);
              corrected = true;
            }
          }
        }
        if (!corrected) {
          // First link: average-degree expansion.
          const Link& first = links[0];
          double factor = gstats_->AverageDegree(p_->edge(first.edge).label,
                                                 first.dir);
          // Additional links: independence closing probabilities.
          double nv = std::max<double>(
              1.0, static_cast<double>(
                       gstats_->NumVertices(p_->vertex(pick).label)));
          for (size_t i = 1; i < links.size(); ++i) {
            double deg = gstats_->AverageDegree(p_->edge(links[i].edge).label,
                                                links[i].dir);
            factor *= std::min(1.0, deg / nv);
          }
          result = base * factor;
        }
      }
    }
  }

  result = std::max(result, 1e-3);
  structural_memo_[mask] = result;
  return result;
}

}  // namespace optimizer
}  // namespace relgo
