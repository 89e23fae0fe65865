#include "exec/naive_matcher.h"

#include <algorithm>

namespace relgo {
namespace exec {

using pattern::PatternGraph;
using storage::Table;
using storage::TablePtr;

namespace {

/// Recursive backtracking state.
class Backtracker {
 public:
  Backtracker(const PatternGraph& p, ExecutionContext* ctx)
      : p_(p), ctx_(ctx) {}

  Result<TablePtr> Run() {
    // Bind clones of the pattern predicates, holding this call's
    // parameter values, to their tables once (clones because the pattern
    // belongs to a plan that concurrent executions may share, and Bind
    // mutates — each execution binds its own copy).
    vertex_tables_.resize(p_.num_vertices());
    vertex_preds_.resize(p_.num_vertices());
    for (int v = 0; v < p_.num_vertices(); ++v) {
      RELGO_ASSIGN_OR_RETURN(vertex_tables_[v],
                             ctx_->VertexTable(p_.vertex(v).label));
      if (p_.vertex(v).predicate) {
        vertex_preds_[v] =
            p_.vertex(v).predicate->CloneWithParams(ctx_->params());
        RELGO_RETURN_NOT_OK(
            vertex_preds_[v]->Bind(vertex_tables_[v]->schema()));
      }
    }
    edge_tables_.resize(p_.num_edges());
    edge_preds_.resize(p_.num_edges());
    for (int e = 0; e < p_.num_edges(); ++e) {
      RELGO_ASSIGN_OR_RETURN(edge_tables_[e],
                             ctx_->EdgeTable(p_.edge(e).label));
      if (p_.edge(e).predicate) {
        edge_preds_[e] = p_.edge(e).predicate->CloneWithParams(ctx_->params());
        RELGO_RETURN_NOT_OK(edge_preds_[e]->Bind(edge_tables_[e]->schema()));
      }
    }
    RELGO_RETURN_NOT_OK(OrderEdges());

    // Output table: vertex vars then edge vars.
    storage::Schema schema;
    for (int v = 0; v < p_.num_vertices(); ++v) {
      RELGO_RETURN_NOT_OK(
          schema.AddColumn({p_.VertexVarName(v), LogicalType::kInt64}));
    }
    for (int e = 0; e < p_.num_edges(); ++e) {
      RELGO_RETURN_NOT_OK(
          schema.AddColumn({p_.EdgeVarName(e), LogicalType::kInt64}));
    }
    out_ = std::make_shared<Table>("naive_match", schema);

    vertex_binding_.assign(p_.num_vertices(), kUnbound);
    edge_binding_.assign(p_.num_edges(), kUnbound);

    // Seed: enumerate candidates of the start vertex.
    int start = p_.num_edges() > 0 ? p_.edge(edge_order_[0]).src : 0;
    const Table& vt = *vertex_tables_[start];
    for (uint64_t r = 0; r < vt.num_rows(); ++r) {
      if (!VertexOk(start, r)) continue;
      vertex_binding_[start] = static_cast<int64_t>(r);
      RELGO_RETURN_NOT_OK(Recurse(0));
      vertex_binding_[start] = kUnbound;
    }
    out_->FinishBulkAppend();
    return out_;
  }

 private:
  static constexpr int64_t kUnbound = -1;

  /// Orders edges so each edge has at least one bound endpoint when
  /// processed (pattern is connected).
  Status OrderEdges() {
    std::vector<bool> used(p_.num_edges(), false);
    std::vector<bool> bound(p_.num_vertices(), false);
    if (p_.num_edges() == 0) return Status::OK();
    bound[p_.edge(0).src] = true;
    for (int step = 0; step < p_.num_edges(); ++step) {
      int pick = -1;
      for (int e = 0; e < p_.num_edges(); ++e) {
        if (used[e]) continue;
        if (bound[p_.edge(e).src] || bound[p_.edge(e).dst]) {
          pick = e;
          break;
        }
      }
      if (pick < 0) {
        return Status::InvalidArgument("pattern is not connected");
      }
      used[pick] = true;
      bound[p_.edge(pick).src] = true;
      bound[p_.edge(pick).dst] = true;
      edge_order_.push_back(pick);
    }
    return Status::OK();
  }

  bool VertexOk(int v, uint64_t row) const {
    const auto& pred = vertex_preds_[v];
    if (pred && !pred->EvaluateBool(*vertex_tables_[v], row)) return false;
    for (const auto& [a, b] : p_.distinct_pairs()) {
      int other = (a == v) ? b : (b == v ? a : -1);
      if (other >= 0 && vertex_binding_[other] == static_cast<int64_t>(row)) {
        return false;
      }
    }
    return true;
  }

  bool EdgeOk(int e, uint64_t row) const {
    const auto& pred = edge_preds_[e];
    return !pred || pred->EvaluateBool(*edge_tables_[e], row);
  }

  Status Emit() {
    std::vector<Value> row;
    row.reserve(vertex_binding_.size() + edge_binding_.size());
    for (int64_t v : vertex_binding_) row.push_back(Value::Int(v));
    for (int64_t e : edge_binding_) row.push_back(Value::Int(e));
    RELGO_RETURN_NOT_OK(out_->AppendRow(row));
    return ctx_->ChargeRows(1);
  }

  Status Recurse(size_t depth) {
    if (depth == edge_order_.size()) return Emit();
    int e = edge_order_[depth];
    const auto& pe = p_.edge(e);
    bool src_bound = vertex_binding_[pe.src] != kUnbound;
    bool dst_bound = vertex_binding_[pe.dst] != kUnbound;

    if (src_bound && dst_bound) {
      // Closing edge: enumerate the run of parallel edges between the two
      // bound vertices (adjacency sorted by neighbor).
      auto s = static_cast<uint64_t>(vertex_binding_[pe.src]);
      auto d = static_cast<uint64_t>(vertex_binding_[pe.dst]);
      graph::AdjacencyList adj =
          ctx_->index().Neighbors(pe.label, graph::Direction::kOut, s);
      const uint64_t* lo =
          std::lower_bound(adj.neighbors, adj.neighbors + adj.size, d);
      for (const uint64_t* p = lo;
           p != adj.neighbors + adj.size && *p == d; ++p) {
        uint64_t edge_row = adj.edges[p - adj.neighbors];
        if (!EdgeOk(e, edge_row)) continue;
        edge_binding_[e] = static_cast<int64_t>(edge_row);
        RELGO_RETURN_NOT_OK(Recurse(depth + 1));
        edge_binding_[e] = kUnbound;
      }
      return Status::OK();
    }

    // Extending edge: expand from the bound endpoint.
    int from = src_bound ? pe.src : pe.dst;
    int to = src_bound ? pe.dst : pe.src;
    graph::Direction dir =
        src_bound ? graph::Direction::kOut : graph::Direction::kIn;
    auto v = static_cast<uint64_t>(vertex_binding_[from]);
    graph::AdjacencyList adj = ctx_->index().Neighbors(pe.label, dir, v);
    for (size_t i = 0; i < adj.size; ++i) {
      uint64_t nbr = adj.neighbors[i];
      uint64_t edge_row = adj.edges[i];
      if (!EdgeOk(e, edge_row)) continue;
      if (!VertexOk(to, nbr)) continue;
      vertex_binding_[to] = static_cast<int64_t>(nbr);
      edge_binding_[e] = static_cast<int64_t>(edge_row);
      RELGO_RETURN_NOT_OK(Recurse(depth + 1));
      vertex_binding_[to] = kUnbound;
      edge_binding_[e] = kUnbound;
    }
    return Status::OK();
  }

  const PatternGraph& p_;
  ExecutionContext* ctx_;
  std::vector<storage::TablePtr> vertex_tables_;
  std::vector<storage::TablePtr> edge_tables_;
  std::vector<storage::ExprPtr> vertex_preds_;  // bound per-execution clones
  std::vector<storage::ExprPtr> edge_preds_;
  std::vector<int> edge_order_;
  std::vector<int64_t> vertex_binding_;
  std::vector<int64_t> edge_binding_;
  TablePtr out_;
};

}  // namespace

Result<TablePtr> NaiveMatch(const PatternGraph& p, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("NaiveMatch requires the graph index");
  }
  if (p.num_vertices() == 0) {
    return Status::InvalidArgument("empty pattern");
  }
  Backtracker bt(p, ctx);
  return bt.Run();
}

}  // namespace exec
}  // namespace relgo
