#include "optimizer/graph_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace relgo {
namespace optimizer {

using graph::Direction;
using pattern::Bit;
using pattern::PatternGraph;
using pattern::PopCount;
using pattern::VSet;
using plan::PhysicalOp;
using plan::PhysicalOpPtr;

namespace {

/// How one pattern edge connects a removed vertex back to the remaining
/// sub-pattern.
struct Link {
  int edge;             ///< pattern edge index
  int rest_vertex;      ///< endpoint inside the remaining mask
  Direction dir;        ///< kOut: rest_vertex is the edge's source
};

/// The decomposition decision recorded per DP state.
struct Choice {
  enum class Kind { kScan, kStar, kJoin } kind = Kind::kScan;
  int removed_vertex = -1;  ///< kStar
  VSet s1 = 0, s2 = 0;      ///< kJoin
};

struct DpEntry {
  double cost = std::numeric_limits<double>::infinity();
  Choice choice;
};

class PlanSearch {
 public:
  PlanSearch(const PatternGraph& p, const std::set<int>& needed_edges,
             const GraphOptimizerOptions& options,
             const graph::RgMapping* mapping,
             const storage::Catalog* catalog,
             const graph::GraphStats* gstats, const Glogue* glogue,
             const TableStats* tstats, const StatsFeedback* feedback)
      : p_(p),
        needed_edges_(needed_edges),
        options_(options),
        mapping_(mapping),
        gstats_(gstats),
        estimator_(&p, glogue, gstats, mapping, catalog, tstats,
                   CardinalityOptions{options.use_high_order}, feedback) {}

  /// Optimize has already checked that the pattern is connected and small.
  Result<GraphPlanResult> Run() {
    VSet all = p_.AllVertices();
    RELGO_RETURN_NOT_OK(Solve());
    GraphPlanResult result;
    result.estimated_cardinality = card_[all];
    result.estimated_cost = dp_[all].cost;
    RELGO_ASSIGN_OR_RETURN(result.root, Emit(all, {}));
    return result;
  }

 private:
  /// Fills `links` (cleared first) with the edges joining `v` to `rest`.
  void LinksOf(int v, VSet rest, std::vector<Link>* links) const {
    links->clear();
    for (int e : p_.IncidentEdges(v)) {
      const auto& pe = p_.edge(e);
      int other = pe.src == v ? pe.dst : pe.src;
      if (other == v || !(rest & Bit(other))) continue;
      links->push_back(
          {e, other, pe.src == v ? Direction::kIn : Direction::kOut});
    }
  }

  double AvgDegree(const Link& link) const {
    return std::max(1e-3,
                    gstats_->AverageDegree(p_.edge(link.edge).label, link.dir));
  }

  /// Independence probability that an extra link closes onto an already
  /// bound vertex: avg degree / |V| of the vertex the link reaches.
  double ClosingProbability(const Link& link) const {
    const auto& pe = p_.edge(link.edge);
    int reached = pe.src == link.rest_vertex ? pe.dst : pe.src;
    double nv = std::max(1.0, static_cast<double>(gstats_->NumVertices(
                                  p_.vertex(reached).label)));
    return std::min(1.0, AvgDegree(link) / nv);
  }

  /// Descriptor of pattern edge `e` for composite feedback keys: the
  /// index keeps keys unique within one plan, and the edge/endpoint
  /// labels keep a persisted correction from ever being applied to a
  /// differently-typed edge of another query whose mask happens to share
  /// the canonical code under a different numbering.
  std::string EdgeKeyPart(int e) const {
    const auto& pe = p_.edge(e);
    return std::to_string(e) + ":" + std::to_string(pe.label) + "," +
           std::to_string(p_.vertex(pe.src).label) + ">" +
           std::to_string(p_.vertex(pe.dst).label);
  }

  /// Cost of implementing the star/EI/join transition (Sec 4.2.1).
  double TransitionCost(VSet mask, VSet rest,
                        const std::vector<Link>& links) const {
    double card_rest = card_[rest];
    double card_mask = card_[mask];
    if (!options_.use_index) {
      // Hash joins throughout: probe/build the edge relation per link.
      double cost = 0.0;
      double intermediate = card_rest;
      for (size_t i = 0; i < links.size(); ++i) {
        double edges = static_cast<double>(
            gstats_->NumEdges(p_.edge(links[i].edge).label));
        if (i == 0) {
          intermediate = card_rest * AvgDegree(links[0]);
        } else {
          intermediate *= ClosingProbability(links[i]);
        }
        cost += edges + intermediate;
      }
      return cost + card_mask;
    }
    if (links.size() == 1) {
      // EXPAND(+GET_VERTEX): |M(P_l)| * avg degree.
      return card_rest * AvgDegree(links[0]) + card_mask;
    }
    if (options_.use_expand_intersect) {
      // EXPAND_INTERSECT: per-row work bounded by the smallest list.
      double min_d = std::numeric_limits<double>::infinity();
      for (const Link& l : links) min_d = std::min(min_d, AvgDegree(l));
      return card_rest * min_d + card_mask;
    }
    // Expand then verify each remaining leaf ("traditional multiple join").
    double cost = card_rest * AvgDegree(links[0]);
    double intermediate = card_rest * AvgDegree(links[0]);
    for (size_t i = 1; i < links.size(); ++i) {
      cost += intermediate;  // probing every intermediate row
      intermediate *= ClosingProbability(links[i]);
    }
    return cost + card_mask;
  }

  /// Bottom-up DP over every vertex mask in ascending order. Per mask the
  /// dense tables hold the best decomposition, a connected flag, the
  /// estimate and nbr_ (the union of its vertices' neighbours). Equal
  /// costs keep the first decomposition found, so the enumeration order
  /// and the strict `<` comparisons decide ties and must not change.
  Status Solve() {
    const int n = p_.num_vertices();
    const size_t size = size_t{1} << n;
    std::vector<VSet> adj(n, 0);
    for (int e = 0; e < p_.num_edges(); ++e) {
      adj[p_.edge(e).src] |= Bit(p_.edge(e).dst);
      adj[p_.edge(e).dst] |= Bit(p_.edge(e).src);
    }
    dp_.assign(size, DpEntry{});
    connected_.assign(size, 0);
    card_.assign(size, 0.0);
    nbr_.assign(size, 0);
    std::vector<Link> links;
    for (VSet mask = 1; mask < size; ++mask) {
      nbr_[mask] = nbr_[mask & (mask - 1)] | adj[__builtin_ctz(mask)];
      // Flood from the lowest vertex; every subset of `mask` precedes it.
      VSet reach = mask & (~mask + 1);
      for (VSet next; (next = (reach | nbr_[reach]) & mask) != reach;) {
        reach = next;
      }
      if (reach != mask) continue;
      connected_[mask] = 1;
      card_[mask] = estimator_.Estimate(mask);
      DpEntry& entry = dp_[mask];
      if (PopCount(mask) == 1) {
        int v = __builtin_ctz(mask);
        entry.cost = static_cast<double>(
            gstats_->NumVertices(p_.vertex(v).label));
        entry.choice.kind = Choice::Kind::kScan;
        continue;
      }
      // Star removals.
      for (int v = 0; v < n; ++v) {
        if (!(mask & Bit(v))) continue;
        VSet rest = mask & ~Bit(v);
        if (!connected_[rest]) continue;
        LinksOf(v, rest, &links);
        if (links.empty()) continue;
        double cost = dp_[rest].cost + TransitionCost(mask, rest, links);
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.choice.kind = Choice::Kind::kStar;
          entry.choice.removed_vertex = v;
        }
      }
      // Binary joins: overlapping connected induced covers s1 | s2 = mask.
      // Every edge is covered unless it joins s1 - s2 to s2 - s1 = rest,
      // so the cover test is one lookup in the neighbour table.
      if (PopCount(mask) >= 3) {
        double card_mask = card_[mask];
        for (VSet s1 = (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask) {
          if (!connected_[s1]) continue;
          VSet rest = mask & ~s1;
          double cost1 = dp_[s1].cost;
          double c1 = card_[s1];
          for (VSet t = s1; t != 0; t = (t - 1) & s1) {
            VSet s2 = rest | t;
            if (s2 == mask || !connected_[s2]) continue;
            if (nbr_[s1 & ~t] & rest) continue;
            double cost = cost1 + dp_[s2].cost + c1 * card_[s2] + card_mask;
            if (cost < entry.cost) {
              entry.cost = cost;
              entry.choice.kind = Choice::Kind::kJoin;
              entry.choice.s1 = s1;
              entry.choice.s2 = s2;
            }
          }
        }
      }
      if (!std::isfinite(entry.cost)) {
        return Status::Internal("no decomposition found for sub-pattern");
      }
    }
    return Status::OK();
  }

  /// True when the binding of pattern edge `e` must exist in the output of
  /// the node for `mask` (pi-hat projection, edge predicate handling, or a
  /// parent join on shared edges).
  bool EdgeBindingNeeded(int e, const std::set<int>& extra) const {
    if (!options_.fuse_expand) return true;
    if (needed_edges_.count(e)) return true;
    if (extra.count(e)) return true;
    return false;
  }

  /// Wraps `op` with NOT_EQUAL filters for distinct pairs that become
  /// jointly bound at `mask` (and were not inside `child_masks`). The
  /// wrappers inherit the mask's cardinality estimate (the estimator
  /// already prices the whole sub-pattern, distinctness included).
  PhysicalOpPtr ApplyDistinct(PhysicalOpPtr op, VSet mask, double card,
                              std::vector<VSet> child_masks) const {
    for (const auto& [a, b] : p_.distinct_pairs()) {
      VSet pair = Bit(a) | Bit(b);
      if ((mask & pair) != pair) continue;
      bool in_child = false;
      for (VSet child : child_masks) {
        if ((child & pair) == pair) in_child = true;
      }
      if (in_child) continue;
      auto ne = std::make_unique<plan::PhysNotEqual>();
      ne->var_a = p_.VertexVarName(a);
      ne->var_b = p_.VertexVarName(b);
      ne->estimated_cardinality = card;
      ne->children.push_back(std::move(op));
      op = std::move(ne);
    }
    return op;
  }

  /// Wraps `op` with a filter on pattern edge `e`'s predicate, if it has
  /// one, inside the node for `mask`.
  PhysicalOpPtr FilterEdge(PhysicalOpPtr op, int e, VSet mask,
                           double card) const {
    if (!p_.edge(e).predicate) return op;
    auto vf = std::make_unique<plan::PhysVertexFilter>();
    vf->var = p_.EdgeVarName(e);
    vf->is_edge = true;
    vf->label = p_.edge(e).label;
    vf->predicate = p_.edge(e).predicate;
    vf->feedback_key =
        "vf|" + estimator_.MaskKey(mask) + "|e" + EdgeKeyPart(e);
    vf->estimated_cardinality =
        card * estimator_.CorrectionFactor(vf->feedback_key);
    vf->children.push_back(std::move(op));
    return vf;
  }

  /// Recursively materializes the physical plan for `mask`.
  /// `required_edges` are edges whose bindings a parent join consumes.
  Result<PhysicalOpPtr> Emit(VSet mask,
                             const std::set<int>& required_edges) const {
    const DpEntry& entry = dp_[mask];
    double card = card_[mask];

    switch (entry.choice.kind) {
      case Choice::Kind::kScan: {
        int v = __builtin_ctz(mask);
        auto scan = std::make_unique<plan::PhysScanVertex>();
        scan->vertex_label = p_.vertex(v).label;
        scan->var = p_.VertexVarName(v);
        scan->filter = p_.vertex(v).predicate;
        scan->estimated_cardinality = card;
        scan->estimated_cost = entry.cost;
        scan->feedback_key = estimator_.MaskKey(mask);
        return PhysicalOpPtr(std::move(scan));
      }
      case Choice::Kind::kStar: {
        int v = entry.choice.removed_vertex;
        VSet rest = mask & ~Bit(v);
        std::vector<Link> links;
        LinksOf(v, rest, &links);
        // Pass down edge requirements that live inside `rest`.
        std::set<int> child_required;
        for (int e : required_edges) {
          VSet ends = Bit(p_.edge(e).src) | Bit(p_.edge(e).dst);
          if ((ends & rest) == ends) child_required.insert(e);
        }
        RELGO_ASSIGN_OR_RETURN(auto child, Emit(rest, child_required));
        double card_rest = card_[rest];
        PhysicalOpPtr op;
        std::string to_var = p_.VertexVarName(v);

        if (links.size() == 1 ||
            (!options_.use_expand_intersect && options_.use_index) ||
            !options_.use_index) {
          // Single-edge expansion, then verify any remaining links.
          const Link& first = links[0];
          const auto& pe = p_.edge(first.edge);
          bool need_edge = EdgeBindingNeeded(first.edge, required_edges) ||
                           pe.predicate != nullptr;
          if (options_.use_index && need_edge) {
            auto ee = std::make_unique<plan::PhysExpandEdge>();
            ee->edge_label = pe.label;
            ee->dir = first.dir;
            ee->from_var = p_.VertexVarName(first.rest_vertex);
            ee->edge_var = p_.EdgeVarName(first.edge);
            ee->edge_filter = pe.predicate;
            // Raw expansion estimate, before GET_VERTEX applies vertex
            // constraints: |M(P_l)| * avg degree (Sec 4.2.1), corrected by
            // the extend-count feedback of this (sub-pattern, edge) pair.
            ee->feedback_key = "xe|" + estimator_.MaskKey(rest) + "|" +
                               EdgeKeyPart(first.edge) +
                               (first.dir == Direction::kOut ? ">" : "<");
            ee->estimated_cardinality =
                card_rest * AvgDegree(first) *
                estimator_.CorrectionFactor(ee->feedback_key);
            ee->children.push_back(std::move(child));
            auto gv = std::make_unique<plan::PhysGetVertex>();
            gv->edge_label = pe.label;
            gv->dir = first.dir;
            gv->edge_var = p_.EdgeVarName(first.edge);
            gv->to_var = to_var;
            gv->vertex_filter = p_.vertex(v).predicate;
            gv->children.push_back(std::move(ee));
            gv->estimated_cardinality = card;
            op = std::move(gv);
          } else {
            auto ex = std::make_unique<plan::PhysExpand>();
            ex->edge_label = pe.label;
            ex->dir = first.dir;
            ex->from_var = p_.VertexVarName(first.rest_vertex);
            ex->to_var = to_var;
            ex->edge_var = need_edge ? p_.EdgeVarName(first.edge) : "";
            ex->vertex_filter = p_.vertex(v).predicate;
            ex->use_index = options_.use_index;
            ex->children.push_back(std::move(child));
            ex->estimated_cardinality = card;
            op = std::move(ex);
            op = FilterEdge(std::move(op), first.edge, mask, card);
          }
          for (size_t i = 1; i < links.size(); ++i) {
            const auto& pe_i = p_.edge(links[i].edge);
            bool need_e = EdgeBindingNeeded(links[i].edge, required_edges) ||
                          pe_i.predicate != nullptr;
            auto ev = std::make_unique<plan::PhysEdgeVerify>();
            ev->edge_label = pe_i.label;
            ev->dir = links[i].dir;
            ev->src_var = p_.VertexVarName(links[i].rest_vertex);
            ev->dst_var = to_var;
            ev->edge_var = need_e ? p_.EdgeVarName(links[i].edge) : "";
            ev->use_index = options_.use_index;
            // Intermediate closures are approximated by the star's final
            // estimate (each verify only shrinks the relation further);
            // the per-node feedback factor learns this closure's residual.
            ev->feedback_key =
                "ev|" + estimator_.MaskKey(mask) + "|e" +
                EdgeKeyPart(links[i].edge) +
                (links[i].dir == Direction::kOut ? ">" : "<");
            ev->estimated_cardinality =
                card * estimator_.CorrectionFactor(ev->feedback_key);
            ev->children.push_back(std::move(op));
            op = std::move(ev);
            op = FilterEdge(std::move(op), links[i].edge, mask, card);
          }
        } else {
          // EXPAND_INTERSECT over all links.
          auto ei = std::make_unique<plan::PhysExpandIntersect>();
          ei->to_var = to_var;
          ei->vertex_filter = p_.vertex(v).predicate;
          for (const Link& l : links) {
            const auto& pe = p_.edge(l.edge);
            ei->edge_labels.push_back(pe.label);
            ei->dirs.push_back(l.dir);
            ei->from_vars.push_back(p_.VertexVarName(l.rest_vertex));
            bool need_e = EdgeBindingNeeded(l.edge, required_edges) ||
                          pe.predicate != nullptr;
            ei->edge_vars.push_back(need_e ? p_.EdgeVarName(l.edge) : "");
          }
          ei->children.push_back(std::move(child));
          ei->estimated_cardinality = card;
          op = std::move(ei);
          for (const Link& l : links) {
            op = FilterEdge(std::move(op), l.edge, mask, card);
          }
        }
        op->estimated_cost = entry.cost;
        PhysicalOpPtr out = ApplyDistinct(std::move(op), mask, card, {rest});
        // The sub-pattern's topmost node is the one whose actual equals
        // |M(P')| — it carries the mask signature (overriding any
        // intermediate composite key) and the estimator's estimate.
        out->feedback_key = estimator_.MaskKey(mask);
        out->estimated_cardinality = card;
        return out;
      }
      case Choice::Kind::kJoin: {
        VSet s1 = entry.choice.s1, s2 = entry.choice.s2;
        VSet overlap = s1 & s2;
        // Shared elements: overlap vertices plus overlap-induced edges
        // (Eq 2 joins on Vo and Eo) — children must bind those edges.
        std::vector<int> shared_edges = p_.InducedEdges(overlap);
        std::set<int> req1, req2;
        for (int e : shared_edges) {
          req1.insert(e);
          req2.insert(e);
        }
        for (int e : required_edges) {
          VSet ends = Bit(p_.edge(e).src) | Bit(p_.edge(e).dst);
          if ((ends & s1) == ends) {
            req1.insert(e);
          } else {
            req2.insert(e);
          }
        }
        RELGO_ASSIGN_OR_RETURN(auto left, Emit(s1, req1));
        RELGO_ASSIGN_OR_RETURN(auto right, Emit(s2, req2));
        auto join = std::make_unique<plan::PhysPatternJoin>();
        for (int v = 0; v < p_.num_vertices(); ++v) {
          if (overlap & Bit(v)) {
            join->common_vars.push_back(p_.VertexVarName(v));
          }
        }
        for (int e : shared_edges) {
          join->common_vars.push_back(p_.EdgeVarName(e));
        }
        join->children.push_back(std::move(left));
        join->children.push_back(std::move(right));
        join->estimated_cardinality = card;
        join->estimated_cost = entry.cost;
        PhysicalOpPtr out = ApplyDistinct(PhysicalOpPtr(std::move(join)),
                                          mask, card, {s1, s2});
        out->feedback_key = estimator_.MaskKey(mask);
        out->estimated_cardinality = card;
        return out;
      }
    }
    return Status::Internal("unreachable");
  }

  const PatternGraph& p_;
  std::set<int> needed_edges_;
  GraphOptimizerOptions options_;
  const graph::RgMapping* mapping_;
  const graph::GraphStats* gstats_;
  CardinalityEstimator estimator_;
  /// Dense tables indexed by vertex mask, 2^n entries each (see Solve).
  std::vector<DpEntry> dp_;
  std::vector<char> connected_;
  std::vector<double> card_;
  std::vector<VSet> nbr_;
};

}  // namespace

Result<GraphPlanResult> GraphOptimizer::Optimize(
    const PatternGraph& p, const std::set<int>& needed_edges,
    const GraphOptimizerOptions& options) const {
  if (p.num_vertices() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  // First: the DP tables hold 2^n entries and a VSet has 32 bits.
  if (p.num_vertices() > std::min(options.max_pattern_vertices, 31)) {
    return Status::InvalidArgument("pattern too large for plan search");
  }
  if (!p.IsConnectedInduced(p.AllVertices())) {
    return Status::InvalidArgument("pattern must be connected");
  }
  PlanSearch search(p, needed_edges, options, mapping_, catalog_, gstats_,
                    glogue_, tstats_, feedback_);
  return search.Run();
}

}  // namespace optimizer
}  // namespace relgo
