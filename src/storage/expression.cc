#include "storage/expression.h"

#include <cstdio>
#include <unordered_map>

#include "common/string_util.h"

namespace relgo {
namespace storage {

ExprPtr Expr::Column(std::string name) {
  auto e = ExprPtr(new Expr(Kind::kColumnRef));
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Constant(Value v) {
  auto e = ExprPtr(new Expr(Kind::kConstant));
  e->value_ = std::move(v);
  return e;
}

ExprPtr Expr::Param(int slot, Value v) {
  auto e = ExprPtr(new Expr(Kind::kConstant));
  e->value_ = std::move(v);
  e->param_slot_ = slot;
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(Kind::kAnd));
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::And(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return Constant(Value::Bool(true));
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

ExprPtr Expr::Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = ExprPtr(new Expr(Kind::kOr));
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Not(ExprPtr inner) {
  auto e = ExprPtr(new Expr(Kind::kNot));
  e->children_ = {std::move(inner)};
  return e;
}

ExprPtr Expr::StartsWith(ExprPtr inner, std::string prefix) {
  auto e = ExprPtr(new Expr(Kind::kStartsWith));
  e->children_ = {std::move(inner)};
  e->string_arg_ = std::move(prefix);
  return e;
}

ExprPtr Expr::Contains(ExprPtr inner, std::string needle) {
  auto e = ExprPtr(new Expr(Kind::kContains));
  e->children_ = {std::move(inner)};
  e->string_arg_ = std::move(needle);
  return e;
}

ExprPtr Expr::InList(ExprPtr inner, std::vector<Value> values) {
  auto e = ExprPtr(new Expr(Kind::kInList));
  e->children_ = {std::move(inner)};
  e->in_list_ = std::move(values);
  return e;
}

ExprPtr Expr::IsNull(ExprPtr inner) {
  auto e = ExprPtr(new Expr(Kind::kIsNull));
  e->children_ = {std::move(inner)};
  return e;
}

Status Expr::Bind(const Schema& schema) {
  if (kind_ == Kind::kColumnRef) {
    int idx = schema.FindColumn(name_);
    if (idx < 0) return Status::NotFound("unbound column '" + name_ + "'");
    bound_index_ = idx;
    return Status::OK();
  }
  for (auto& child : children_) {
    RELGO_RETURN_NOT_OK(child->Bind(schema));
  }
  return Status::OK();
}

bool Expr::BindsTo(const Schema& schema) const {
  if (kind_ == Kind::kColumnRef) return schema.FindColumn(name_) >= 0;
  for (const auto& child : children_) {
    if (!child->BindsTo(schema)) return false;
  }
  return true;
}

namespace {

/// Column-reference resolution over a Table row.
struct TableSrc {
  const Table* table;
  Value Get(uint64_t row, int index) const {
    return table->GetValue(row, static_cast<size_t>(index));
  }
};

/// Column-reference resolution over loose columns (vectorized batches).
struct ColumnsSrc {
  const class Column* const* columns;
  Value Get(uint64_t row, int index) const {
    return columns[index]->GetValue(row);
  }
};

}  // namespace

template <typename Src>
Value Expr::EvaluateImpl(const Src& src, uint64_t row) const {
  switch (kind_) {
    case Kind::kColumnRef:
      return src.Get(row, bound_index_);
    case Kind::kConstant:
      return value_;
    case Kind::kCompare: {
      Value l = children_[0]->EvaluateImpl(src, row);
      Value r = children_[1]->EvaluateImpl(src, row);
      if (l.is_null() || r.is_null()) return Value::Null();
      int c = l.Compare(r);
      switch (compare_op_) {
        case CompareOp::kEq:
          return Value::Bool(c == 0);
        case CompareOp::kNe:
          return Value::Bool(c != 0);
        case CompareOp::kLt:
          return Value::Bool(c < 0);
        case CompareOp::kLe:
          return Value::Bool(c <= 0);
        case CompareOp::kGt:
          return Value::Bool(c > 0);
        case CompareOp::kGe:
          return Value::Bool(c >= 0);
      }
      return Value::Null();
    }
    case Kind::kAnd: {
      Value l = children_[0]->EvaluateImpl(src, row);
      if (!l.is_null() && !l.bool_value()) return Value::Bool(false);
      Value r = children_[1]->EvaluateImpl(src, row);
      if (!r.is_null() && !r.bool_value()) return Value::Bool(false);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(true);
    }
    case Kind::kOr: {
      Value l = children_[0]->EvaluateImpl(src, row);
      if (!l.is_null() && l.bool_value()) return Value::Bool(true);
      Value r = children_[1]->EvaluateImpl(src, row);
      if (!r.is_null() && r.bool_value()) return Value::Bool(true);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    case Kind::kNot: {
      Value v = children_[0]->EvaluateImpl(src, row);
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.bool_value());
    }
    case Kind::kStartsWith: {
      Value v = children_[0]->EvaluateImpl(src, row);
      if (v.is_null() || v.type() != LogicalType::kString) return Value::Null();
      return Value::Bool(relgo::StartsWith(v.string_value(), string_arg_));
    }
    case Kind::kContains: {
      Value v = children_[0]->EvaluateImpl(src, row);
      if (v.is_null() || v.type() != LogicalType::kString) return Value::Null();
      return Value::Bool(relgo::Contains(v.string_value(), string_arg_));
    }
    case Kind::kInList: {
      Value v = children_[0]->EvaluateImpl(src, row);
      if (v.is_null()) return Value::Null();
      for (const auto& candidate : in_list_) {
        if (v == candidate) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Kind::kIsNull: {
      Value v = children_[0]->EvaluateImpl(src, row);
      return Value::Bool(v.is_null());
    }
  }
  return Value::Null();
}

Value Expr::Evaluate(const Table& table, uint64_t row) const {
  return EvaluateImpl(TableSrc{&table}, row);
}

Value Expr::Evaluate(const class Column* const* columns, uint64_t row) const {
  return EvaluateImpl(ColumnsSrc{columns}, row);
}

bool Expr::EvaluateBool(const Table& table, uint64_t row) const {
  Value v = Evaluate(table, row);
  return !v.is_null() && v.type() == LogicalType::kBool && v.bool_value();
}

bool Expr::EvaluateBool(const class Column* const* columns,
                        uint64_t row) const {
  Value v = Evaluate(columns, row);
  return !v.is_null() && v.type() == LogicalType::kBool && v.bool_value();
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == Kind::kColumnRef) {
    out->push_back(name_);
    return;
  }
  for (const auto& child : children_) child->CollectColumns(out);
}

bool Expr::HasParam() const {
  if (param_slot_ >= 0) return true;
  for (const auto& child : children_) {
    if (child->HasParam()) return true;
  }
  return false;
}

ExprPtr Expr::Clone() const { return CloneImpl(nullptr, nullptr); }

ExprPtr Expr::CloneRenamed(
    const std::unordered_map<std::string, std::string>& rename) const {
  return CloneImpl(&rename, nullptr);
}

ExprPtr Expr::CloneWithParams(const ParamValues& params) const {
  return CloneImpl(nullptr, &params);
}

ExprPtr Expr::CloneImpl(
    const std::unordered_map<std::string, std::string>* rename,
    const ParamValues* params) const {
  auto e = ExprPtr(new Expr(kind_));
  e->name_ = name_;
  if (rename != nullptr && kind_ == Kind::kColumnRef) {
    auto it = rename->find(name_);
    if (it != rename->end()) e->name_ = it->second;
  }
  e->value_ = value_;
  e->param_slot_ = param_slot_;
  if (params != nullptr && param_slot_ >= 0) {
    auto it = params->find(param_slot_);
    if (it != params->end()) e->value_ = it->second;
  }
  e->compare_op_ = compare_op_;
  e->string_arg_ = string_arg_;
  e->in_list_ = in_list_;
  for (const auto& child : children_) {
    e->children_.push_back(child->CloneImpl(rename, params));
  }
  return e;
}

void Expr::SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (!expr) return;
  if (expr->kind_ == Kind::kAnd) {
    SplitConjuncts(expr->children_[0], out);
    SplitConjuncts(expr->children_[1], out);
    return;
  }
  out->push_back(expr);
}

namespace {

/// A constant as ToString renders it, or with doubles at round-trip
/// precision when `exact`.
std::string RenderValue(const Value& v, bool exact) {
  if (exact && v.type() == LogicalType::kDouble) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v.double_value());
    return buf;
  }
  return v.ToString();
}

}  // namespace

std::string Expr::ToString() const { return ToStringImpl(Render::kDisplay); }

std::string Expr::ToKeyString() const { return ToStringImpl(Render::kKey); }

std::string Expr::ToTemplateString() const {
  return ToStringImpl(Render::kTemplate);
}

std::string Expr::ToStringImpl(Render mode) const {
  const bool exact = mode != Render::kDisplay;
  switch (kind_) {
    case Kind::kColumnRef:
      return name_;
    case Kind::kConstant:
      if (mode != Render::kKey && param_slot_ >= 0) {
        return "$" + std::to_string(param_slot_);
      }
      return value_.type() == LogicalType::kString
                 ? "'" + value_.ToString() + "'"
                 : RenderValue(value_, exact);
    case Kind::kCompare: {
      const char* op = "=";
      switch (compare_op_) {
        case CompareOp::kEq:
          op = "=";
          break;
        case CompareOp::kNe:
          op = "<>";
          break;
        case CompareOp::kLt:
          op = "<";
          break;
        case CompareOp::kLe:
          op = "<=";
          break;
        case CompareOp::kGt:
          op = ">";
          break;
        case CompareOp::kGe:
          op = ">=";
          break;
      }
      return children_[0]->ToStringImpl(mode) + " " + op + " " +
             children_[1]->ToStringImpl(mode);
    }
    case Kind::kAnd:
      return "(" + children_[0]->ToStringImpl(mode) + " AND " +
             children_[1]->ToStringImpl(mode) + ")";
    case Kind::kOr:
      return "(" + children_[0]->ToStringImpl(mode) + " OR " +
             children_[1]->ToStringImpl(mode) + ")";
    case Kind::kNot:
      return "NOT (" + children_[0]->ToStringImpl(mode) + ")";
    case Kind::kStartsWith:
      return children_[0]->ToStringImpl(mode) + " STARTS WITH '" +
             string_arg_ + "'";
    case Kind::kContains:
      return children_[0]->ToStringImpl(mode) + " CONTAINS '" +
             string_arg_ + "'";
    case Kind::kInList: {
      std::string out = children_[0]->ToStringImpl(mode) + " IN (";
      for (size_t i = 0; i < in_list_.size(); ++i) {
        if (i) out += ", ";
        out += RenderValue(in_list_[i], exact);
      }
      return out + ")";
    }
    case Kind::kIsNull:
      return children_[0]->ToStringImpl(mode) + " IS NULL";
  }
  return "?";
}

}  // namespace storage
}  // namespace relgo
