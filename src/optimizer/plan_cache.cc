#include "optimizer/plan_cache.h"

#include <functional>
#include <utility>

namespace relgo {
namespace optimizer {

namespace {

using storage::Expr;
using storage::ExprPtr;

/// Structurally rebuilds an expression tree, delegating every constant
/// leaf to `on_constant` in written (left-to-right) order. Column
/// references are rebuilt unbound (callers re-Bind), every other node
/// keeps its shape and arguments.
ExprPtr RebuildExpr(const ExprPtr& e,
                    const std::function<ExprPtr(const Expr&)>& on_constant) {
  // The left child is rebuilt into a local first: the evaluation order of
  // function arguments is unspecified, and slot numbers follow it.
  auto binary = [&](auto make) {
    ExprPtr left = RebuildExpr(e->children()[0], on_constant);
    return make(std::move(left), RebuildExpr(e->children()[1], on_constant));
  };
  switch (e->kind()) {
    case Expr::Kind::kColumnRef:
      return Expr::Column(e->column_name());
    case Expr::Kind::kConstant:
      return on_constant(*e);
    case Expr::Kind::kCompare:
      return binary([&](ExprPtr l, ExprPtr r) {
        return Expr::Compare(e->compare_op(), std::move(l), std::move(r));
      });
    case Expr::Kind::kAnd:
      return binary([](ExprPtr l, ExprPtr r) {
        return Expr::And(std::move(l), std::move(r));
      });
    case Expr::Kind::kOr:
      return binary([](ExprPtr l, ExprPtr r) {
        return Expr::Or(std::move(l), std::move(r));
      });
    case Expr::Kind::kNot:
      return Expr::Not(RebuildExpr(e->children()[0], on_constant));
    case Expr::Kind::kStartsWith:
      return Expr::StartsWith(RebuildExpr(e->children()[0], on_constant),
                              e->string_arg());
    case Expr::Kind::kContains:
      return Expr::Contains(RebuildExpr(e->children()[0], on_constant),
                            e->string_arg());
    case Expr::Kind::kInList:
      return Expr::InList(RebuildExpr(e->children()[0], on_constant),
                          e->in_list());
    case Expr::Kind::kIsNull:
      return Expr::IsNull(RebuildExpr(e->children()[0], on_constant));
  }
  return e->Clone();
}

/// Applies `fn` to every expression slot of `q`, in the deterministic
/// order that defines parameter-slot numbering: pattern vertices, pattern
/// edges, join scan filters, WHERE.
void TransformQueryExprs(plan::SpjmQuery* q,
                         const std::function<ExprPtr(const ExprPtr&)>& fn) {
  pattern::PatternGraph& p = q->pattern;
  for (int i = 0; i < p.num_vertices(); ++i) {
    if (p.vertex(i).predicate) {
      p.vertex(i).predicate = fn(p.vertex(i).predicate);
    }
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    if (p.edge(i).predicate) p.edge(i).predicate = fn(p.edge(i).predicate);
  }
  for (auto& j : q->joins) {
    if (j.scan_filter) j.scan_filter = fn(j.scan_filter);
  }
  if (q->where) q->where = fn(q->where);
}

void CollectExprParams(const ExprPtr& e, storage::ParamValues* out) {
  if (!e) return;
  if (e->kind() == Expr::Kind::kConstant && e->param_slot() >= 0) {
    (*out)[e->param_slot()] = e->constant();
  }
  for (const auto& child : e->children()) CollectExprParams(child, out);
}

std::string ExprSig(const ExprPtr& e) {
  return e ? e->ToTemplateString() : "";
}

}  // namespace

ParameterizedQuery ParameterizeQuery(const plan::SpjmQuery& query) {
  ParameterizedQuery out;
  out.query = query;
  auto slot_constant = [&out](const Expr& c) -> ExprPtr {
    const Value& v = c.constant();
    if (v.type() == LogicalType::kBool || v.type() == LogicalType::kNull) {
      // Structural literals (the empty-conjunction TRUE) stay literal:
      // slotting them would let a binding change the plan shape.
      return Expr::Constant(v);
    }
    int slot = static_cast<int>(out.defaults.size());
    out.defaults.push_back(v);
    return Expr::Param(slot, v);
  };
  TransformQueryExprs(&out.query, [&slot_constant](const ExprPtr& e) {
    return RebuildExpr(e, slot_constant);
  });
  return out;
}

Result<plan::SpjmQuery> BindTemplate(const ParameterizedQuery& t,
                                     const std::vector<Value>& params) {
  if (params.size() != t.defaults.size()) {
    return Status::InvalidArgument(
        "template '" + t.query.name + "' takes " +
        std::to_string(t.defaults.size()) + " parameter(s), got " +
        std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].type() != t.defaults[i].type()) {
      return Status::InvalidArgument(
          "template '" + t.query.name + "' parameter $" + std::to_string(i) +
          " type mismatch");
    }
  }
  plan::SpjmQuery bound = t.query;
  auto substitute = [&params](const Expr& c) -> ExprPtr {
    if (c.param_slot() >= 0) {
      return Expr::Param(c.param_slot(), params[c.param_slot()]);
    }
    return Expr::Constant(c.constant());
  };
  TransformQueryExprs(&bound, [&substitute](const ExprPtr& e) {
    return RebuildExpr(e, substitute);
  });
  return bound;
}

std::string TemplateSignature(const plan::SpjmQuery& query,
                              OptimizerMode mode) {
  std::string sig = "mode=";
  sig += ModeName(mode);
  const pattern::PatternGraph& p = query.pattern;
  sig += "|pattern:";
  for (int i = 0; i < p.num_vertices(); ++i) {
    const pattern::PatternVertex& v = p.vertex(i);
    sig += "v" + std::to_string(i) + ":" + std::to_string(v.label) + ":" +
           v.name + "[" + ExprSig(v.predicate) + "];";
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    const pattern::PatternEdge& e = p.edge(i);
    sig += "e" + std::to_string(i) + ":" + std::to_string(e.label) + ":" +
           std::to_string(e.src) + "->" + std::to_string(e.dst) + ":" +
           e.name + "[" + ExprSig(e.predicate) + "];";
  }
  for (const auto& [a, b] : p.distinct_pairs()) {
    sig += "d" + std::to_string(a) + "!=" + std::to_string(b) + ";";
  }
  sig += "|cols:";
  for (const auto& g : query.graph_projections) {
    sig += g.var + "." + g.column + " AS " + g.output_name + ";";
  }
  sig += "|joins:";
  for (const auto& j : query.joins) {
    sig += j.table + " " + j.alias + " ON " + j.left_column + "=" +
           j.right_column + "[" + ExprSig(j.scan_filter) + "];";
  }
  sig += "|where:" + ExprSig(query.where);
  sig += "|select:";
  for (const auto& [src, out] : query.select) {
    sig += src + " AS " + out + ";";
  }
  sig += "|group:";
  for (const auto& g : query.group_by) sig += g + ";";
  sig += "|agg:";
  for (const auto& a : query.aggregates) {
    sig += std::to_string(static_cast<int>(a.func)) + "(" + a.input_column +
           ") AS " + a.output_name + ";";
  }
  sig += "|order:";
  for (const auto& k : query.order_by) {
    sig += k.column + (k.ascending ? " ASC;" : " DESC;");
  }
  sig += "|limit:" + std::to_string(query.limit);
  return sig;
}

storage::ParamValues CollectBoundParams(const plan::SpjmQuery& query) {
  storage::ParamValues out;
  const pattern::PatternGraph& p = query.pattern;
  for (int i = 0; i < p.num_vertices(); ++i) {
    CollectExprParams(p.vertex(i).predicate, &out);
  }
  for (int i = 0; i < p.num_edges(); ++i) {
    CollectExprParams(p.edge(i).predicate, &out);
  }
  for (const auto& j : query.joins) CollectExprParams(j.scan_filter, &out);
  CollectExprParams(query.where, &out);
  return out;
}

}  // namespace optimizer
}  // namespace relgo
