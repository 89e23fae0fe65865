#include "plan/plan_clone.h"

#include <memory>
#include <utility>

namespace relgo {
namespace plan {

namespace {

storage::ExprPtr Tx(const ExprTransform& transform,
                    const storage::ExprPtr& e) {
  return e ? transform(e) : nullptr;
}

}  // namespace

PhysicalOpPtr ClonePlan(const PhysicalOp& op, const ExprTransform& transform) {
  PhysicalOpPtr out;
  switch (op.kind) {
    case OpKind::kScanTable: {
      const auto& n = static_cast<const PhysScanTable&>(op);
      auto c = std::make_unique<PhysScanTable>();
      c->table = n.table;
      c->alias = n.alias;
      c->filter = Tx(transform, n.filter);
      c->projected_columns = n.projected_columns;
      c->emit_rowid = n.emit_rowid;
      out = std::move(c);
      break;
    }
    case OpKind::kFilter: {
      const auto& n = static_cast<const PhysFilter&>(op);
      auto c = std::make_unique<PhysFilter>();
      c->predicate = Tx(transform, n.predicate);
      out = std::move(c);
      break;
    }
    case OpKind::kProject: {
      const auto& n = static_cast<const PhysProject&>(op);
      auto c = std::make_unique<PhysProject>();
      c->columns = n.columns;
      out = std::move(c);
      break;
    }
    case OpKind::kHashJoin: {
      const auto& n = static_cast<const PhysHashJoin&>(op);
      auto c = std::make_unique<PhysHashJoin>();
      c->left_keys = n.left_keys;
      c->right_keys = n.right_keys;
      out = std::move(c);
      break;
    }
    case OpKind::kRidLookupJoin: {
      const auto& n = static_cast<const PhysRidLookupJoin&>(op);
      auto c = std::make_unique<PhysRidLookupJoin>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->edge_rowid_column = n.edge_rowid_column;
      c->vertex_alias = n.vertex_alias;
      c->vertex_columns = n.vertex_columns;
      c->vertex_filter = Tx(transform, n.vertex_filter);
      c->emit_vertex_rowid = n.emit_vertex_rowid;
      out = std::move(c);
      break;
    }
    case OpKind::kRidExpandJoin: {
      const auto& n = static_cast<const PhysRidExpandJoin&>(op);
      auto c = std::make_unique<PhysRidExpandJoin>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->vertex_rowid_column = n.vertex_rowid_column;
      c->edge_alias = n.edge_alias;
      c->edge_columns = n.edge_columns;
      c->edge_filter = Tx(transform, n.edge_filter);
      c->emit_edge_rowid = n.emit_edge_rowid;
      out = std::move(c);
      break;
    }
    case OpKind::kHashAggregate: {
      const auto& n = static_cast<const PhysHashAggregate&>(op);
      auto c = std::make_unique<PhysHashAggregate>();
      c->group_by = n.group_by;
      c->aggregates = n.aggregates;
      out = std::move(c);
      break;
    }
    case OpKind::kOrderBy: {
      const auto& n = static_cast<const PhysOrderBy&>(op);
      auto c = std::make_unique<PhysOrderBy>();
      c->keys = n.keys;
      out = std::move(c);
      break;
    }
    case OpKind::kLimit: {
      const auto& n = static_cast<const PhysLimit&>(op);
      auto c = std::make_unique<PhysLimit>();
      c->limit = n.limit;
      out = std::move(c);
      break;
    }
    case OpKind::kScanVertex: {
      const auto& n = static_cast<const PhysScanVertex&>(op);
      auto c = std::make_unique<PhysScanVertex>();
      c->vertex_label = n.vertex_label;
      c->var = n.var;
      c->filter = Tx(transform, n.filter);
      out = std::move(c);
      break;
    }
    case OpKind::kExpandEdge: {
      const auto& n = static_cast<const PhysExpandEdge&>(op);
      auto c = std::make_unique<PhysExpandEdge>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->from_var = n.from_var;
      c->edge_var = n.edge_var;
      c->edge_filter = Tx(transform, n.edge_filter);
      out = std::move(c);
      break;
    }
    case OpKind::kGetVertex: {
      const auto& n = static_cast<const PhysGetVertex&>(op);
      auto c = std::make_unique<PhysGetVertex>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->edge_var = n.edge_var;
      c->to_var = n.to_var;
      c->vertex_filter = Tx(transform, n.vertex_filter);
      out = std::move(c);
      break;
    }
    case OpKind::kExpand: {
      const auto& n = static_cast<const PhysExpand&>(op);
      auto c = std::make_unique<PhysExpand>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->from_var = n.from_var;
      c->to_var = n.to_var;
      c->edge_var = n.edge_var;
      c->vertex_filter = Tx(transform, n.vertex_filter);
      c->use_index = n.use_index;
      out = std::move(c);
      break;
    }
    case OpKind::kExpandIntersect: {
      const auto& n = static_cast<const PhysExpandIntersect&>(op);
      auto c = std::make_unique<PhysExpandIntersect>();
      c->edge_labels = n.edge_labels;
      c->dirs = n.dirs;
      c->from_vars = n.from_vars;
      c->edge_vars = n.edge_vars;
      c->to_var = n.to_var;
      c->vertex_filter = Tx(transform, n.vertex_filter);
      out = std::move(c);
      break;
    }
    case OpKind::kEdgeVerify: {
      const auto& n = static_cast<const PhysEdgeVerify&>(op);
      auto c = std::make_unique<PhysEdgeVerify>();
      c->edge_label = n.edge_label;
      c->dir = n.dir;
      c->src_var = n.src_var;
      c->dst_var = n.dst_var;
      c->edge_var = n.edge_var;
      c->use_index = n.use_index;
      out = std::move(c);
      break;
    }
    case OpKind::kPatternJoin: {
      const auto& n = static_cast<const PhysPatternJoin&>(op);
      auto c = std::make_unique<PhysPatternJoin>();
      c->common_vars = n.common_vars;
      out = std::move(c);
      break;
    }
    case OpKind::kVertexFilter: {
      const auto& n = static_cast<const PhysVertexFilter&>(op);
      auto c = std::make_unique<PhysVertexFilter>();
      c->var = n.var;
      c->is_edge = n.is_edge;
      c->label = n.label;
      c->predicate = Tx(transform, n.predicate);
      out = std::move(c);
      break;
    }
    case OpKind::kNotEqual: {
      const auto& n = static_cast<const PhysNotEqual&>(op);
      auto c = std::make_unique<PhysNotEqual>();
      c->var_a = n.var_a;
      c->var_b = n.var_b;
      out = std::move(c);
      break;
    }
    case OpKind::kNaiveMatch: {
      const auto& n = static_cast<const PhysNaiveMatch&>(op);
      auto c = std::make_unique<PhysNaiveMatch>();
      // PatternGraph's copy shares ExprPtr predicates with the source;
      // re-point each one through the transform so the copy owns its own
      // (possibly re-bound) constraint trees.
      c->pattern = n.pattern;
      for (int i = 0; i < c->pattern.num_vertices(); ++i) {
        c->pattern.vertex(i).predicate =
            Tx(transform, c->pattern.vertex(i).predicate);
      }
      for (int i = 0; i < c->pattern.num_edges(); ++i) {
        c->pattern.edge(i).predicate =
            Tx(transform, c->pattern.edge(i).predicate);
      }
      out = std::move(c);
      break;
    }
    case OpKind::kScanGraphTable: {
      const auto& n = static_cast<const PhysScanGraphTable&>(op);
      auto c = std::make_unique<PhysScanGraphTable>();
      c->projections = n.projections;
      c->rowid_passthrough = n.rowid_passthrough;
      c->vertex_var_labels = n.vertex_var_labels;
      c->edge_var_labels = n.edge_var_labels;
      out = std::move(c);
      break;
    }
  }
  for (const auto& child : op.children) {
    out->children.push_back(ClonePlan(*child, transform));
  }
  out->estimated_cardinality = op.estimated_cardinality;
  out->estimated_cost = op.estimated_cost;
  return out;
}

PhysicalOpPtr ClonePlan(const PhysicalOp& op) {
  return ClonePlan(
      op, [](const storage::ExprPtr& e) { return e->Clone(); });
}

}  // namespace plan
}  // namespace relgo
