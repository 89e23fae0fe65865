#ifndef RELGO_STORAGE_EXPRESSION_H_
#define RELGO_STORAGE_EXPRESSION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "storage/table.h"

namespace relgo {
namespace storage {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// The values one call binds to a query template's parameter slots, keyed
/// by slot (optimizer::CollectBoundParams).
using ParamValues = std::unordered_map<int, Value>;

/// Comparison operators for scalar predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Scalar expression tree evaluated against one row of a Table.
///
/// Expressions reference attributes by name and are *bound* to a concrete
/// schema before evaluation; binding resolves names to column indexes so the
/// evaluation loop does no string lookups. The same expression object can be
/// re-bound as it is pushed through the optimizer (filter pushdown,
/// FilterIntoMatchRule).
class Expr {
 public:
  enum class Kind {
    kColumnRef,
    kConstant,
    kCompare,
    kAnd,
    kOr,
    kNot,
    kStartsWith,
    kContains,
    kInList,
    kIsNull,
  };

  // -- Factories ------------------------------------------------------------

  static ExprPtr Column(std::string name);
  static ExprPtr Constant(Value v);
  /// A constant annotated as parameter slot `slot` of a query template
  /// (optimizer/plan_cache.h): evaluation treats it as an ordinary
  /// constant holding the currently bound value, but the optimizer
  /// estimates it value-insensitively and template signatures and plan
  /// renderings show it as "$<slot>", so every binding of one template
  /// plans identically.
  static ExprPtr Param(int slot, Value v);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr And(std::vector<ExprPtr> conjuncts);
  static ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Not(ExprPtr inner);
  static ExprPtr StartsWith(ExprPtr inner, std::string prefix);
  static ExprPtr Contains(ExprPtr inner, std::string needle);
  static ExprPtr InList(ExprPtr inner, std::vector<Value> values);
  static ExprPtr IsNull(ExprPtr inner);

  // Convenience comparison factories against a constant.
  static ExprPtr Eq(std::string column, Value v) {
    return Compare(CompareOp::kEq, Column(std::move(column)),
                   Constant(std::move(v)));
  }
  static ExprPtr ColumnsEq(std::string left, std::string right) {
    return Compare(CompareOp::kEq, Column(std::move(left)),
                   Column(std::move(right)));
  }

  // -- Introspection ----------------------------------------------------------

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const Value& constant() const { return value_; }
  CompareOp compare_op() const { return compare_op_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const std::string& string_arg() const { return string_arg_; }
  const std::vector<Value>& in_list() const { return in_list_; }

  /// Parameter slot of a kConstant created via Param (-1 for plain
  /// constants). Survives Clone/CloneRenamed so pushdown rewrites keep
  /// the template annotation.
  int param_slot() const { return param_slot_; }

  /// True when any constant in the tree carries a parameter slot.
  bool HasParam() const;

  /// Resolved column index after a successful Bind (-1 when unbound).
  /// Exposed so the vectorized lowerer (src/exec/vector/) can map a bound
  /// tree onto typed payload spans without re-resolving names.
  int bound_index() const { return bound_index_; }

  /// Resolves column references against `schema`. Fails when a referenced
  /// attribute is absent (callers use this to test applicability of
  /// pushdowns).
  Status Bind(const Schema& schema);

  /// True when every referenced attribute exists in `schema`.
  bool BindsTo(const Schema& schema) const;

  /// Evaluates against row `row` of `table`; Bind must have succeeded against
  /// the table's schema. Const and thread-safe once bound: concurrent
  /// evaluation over disjoint rows is allowed (pipeline engine workers).
  Value Evaluate(const Table& table, uint64_t row) const;

  /// Evaluates against a row of loose columns laid out per the bound schema
  /// (used by the vectorized engine, whose batches are not Tables).
  Value Evaluate(const class Column* const* columns, uint64_t row) const;

  /// Evaluates as a predicate; NULL results are treated as false (SQL
  /// three-valued logic collapsed at the filter boundary).
  bool EvaluateBool(const Table& table, uint64_t row) const;
  bool EvaluateBool(const class Column* const* columns, uint64_t row) const;

  /// Names of all attributes referenced anywhere in the tree.
  void CollectColumns(std::vector<std::string>* out) const;

  /// Deep copy; used when a rule rewrites one branch of a shared plan.
  ExprPtr Clone() const;

  /// Deep copy with every column reference renamed through `rename`;
  /// unmapped names are kept. Used when predicates are pushed across
  /// projections that alias attributes.
  ExprPtr CloneRenamed(
      const std::unordered_map<std::string, std::string>& rename) const;

  /// Deep copy in which each parameter-slotted constant holds
  /// `params[slot]` (slots absent from `params` keep their value). The
  /// plan cache shares one plan across a template's bindings, so the
  /// execution engines bind this clone of a plan expression, carrying the
  /// call's values, instead of the expression itself.
  ExprPtr CloneWithParams(const ParamValues& params) const;

  /// Flattens a conjunction into its leaves ((a AND b) AND c -> [a,b,c]).
  static void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out);

  /// Display rendering (EXPLAIN): a parameter-slotted constant shows as
  /// "$<slot>", the template form under which its plan is cached.
  std::string ToString() const;

  /// Renders every constant by value, doubles at round-trip precision
  /// (ToString's "%.6g" prints 199.9999999 and 200.0000001 both as "200").
  /// Cache keys are built from it, so distinct constants never share one.
  std::string ToKeyString() const;

  /// Like ToKeyString, but renders parameter-slotted constants as
  /// "$<slot>" instead of their currently bound value. Used for plan-cache
  /// template signatures so every binding of one template maps to the
  /// same key; byte-identical to ToKeyString for trees without parameters.
  std::string ToTemplateString() const;

 private:
  explicit Expr(Kind kind) : kind_(kind) {}

  /// Clone, CloneRenamed and CloneWithParams; null maps change nothing.
  ExprPtr CloneImpl(
      const std::unordered_map<std::string, std::string>* rename,
      const ParamValues* params) const;

  enum class Render { kDisplay, kKey, kTemplate };
  std::string ToStringImpl(Render mode) const;

  /// Shared evaluation core; `Src::Get(row, index)` resolves a bound column
  /// reference. Instantiated for Table rows and loose column arrays.
  template <typename Src>
  Value EvaluateImpl(const Src& src, uint64_t row) const;

  Kind kind_;
  std::string name_;        // kColumnRef
  int bound_index_ = -1;    // kColumnRef after Bind
  Value value_;             // kConstant
  int param_slot_ = -1;     // kConstant created via Param
  CompareOp compare_op_ = CompareOp::kEq;
  std::string string_arg_;  // kStartsWith / kContains
  std::vector<Value> in_list_;
  std::vector<ExprPtr> children_;
};

}  // namespace storage
}  // namespace relgo

#endif  // RELGO_STORAGE_EXPRESSION_H_
