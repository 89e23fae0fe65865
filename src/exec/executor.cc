#include "exec/executor.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "common/fault.h"
#include "common/hash.h"
#include "exec/exec_common.h"
#include "exec/naive_matcher.h"

namespace relgo {
namespace exec {

using plan::OpKind;
using plan::PhysicalOp;
using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

namespace {

// ---------------------------------------------------------------------------
// Small helpers (shared ones live in exec/exec_common.h)
// ---------------------------------------------------------------------------

Result<size_t> ColumnIndex(const Table& t, const std::string& name) {
  return t.schema().GetColumnIndex(name);
}

/// Builds a table whose columns are the child's columns gathered by `sel`.
TablePtr GatherTable(const Table& src, const std::vector<uint64_t>& sel,
                     const std::string& name) {
  auto out = std::make_shared<Table>(name, src.schema());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    out->column(c) = src.column(c).Gather(sel);
  }
  out->FinishBulkAppend();
  return out;
}

/// Three-way ORDER BY key comparison over boxed Values (null ordering,
/// per-key direction). `a` / `b` map a key index to that row's key Value.
/// Returns <0 / 0 / >0; ties are the caller's to break (stable sort
/// order).
template <typename AValueAt, typename BValueAt>
int CompareSortKeyValues(const std::vector<plan::SortKey>& keys,
                         const AValueAt& a, const BValueAt& b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a(i).Compare(b(i));
    if (c != 0) return keys[i].ascending ? c : -c;
  }
  return 0;
}

/// Group-by / join key wrapper with Value-based equality.
struct GroupKey {
  std::vector<Value> values;
  bool operator==(const GroupKey& other) const {
    if (values.size() != other.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (!(values[i] == other.values[i])) return false;
    }
    return true;
  }
};
struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (const auto& v : k.values) h = HashCombine(h, v.Hash());
    return h;
  }
};

/// The boxed key of row `r` over `cols`.
GroupKey RowKey(const Table& t, const std::vector<size_t>& cols, uint64_t r) {
  GroupKey key;
  key.values.reserve(cols.size());
  for (size_t c : cols) key.values.push_back(t.GetValue(r, c));
  return key;
}

/// True when `key` holds a NULL: under SQL equality it joins no row.
bool HasNull(const GroupKey& key) {
  for (const Value& v : key.values) {
    if (v.is_null()) return true;
  }
  return false;
}

/// Binds a clone of `filter` holding this call's parameter values to
/// `table`: the plan may be a cached one shared by concurrent executions,
/// and Bind writes the indexes it resolves.
Result<storage::ExprPtr> BindClone(const storage::ExprPtr& filter,
                                   const Table& table,
                                   const ExecutionContext& ctx) {
  if (!filter) return storage::ExprPtr();
  storage::ExprPtr bound = filter->CloneWithParams(ctx.params());
  RELGO_RETURN_NOT_OK(bound->Bind(table.schema()));
  return bound;
}

/// Rows of `table` passing `filter` (all rows without one), evaluated row
/// at a time.
Result<std::vector<uint64_t>> FilteredSelection(
    const Table& table, const storage::ExprPtr& filter,
    const ExecutionContext& ctx) {
  RELGO_ASSIGN_OR_RETURN(auto bound, BindClone(filter, table, ctx));
  std::vector<uint64_t> sel;
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    if (!bound || bound->EvaluateBool(table, r)) sel.push_back(r);
  }
  return sel;
}

/// One byte per row of `table` (1 == passes `filter`); empty when there is
/// no filter, meaning every row passes.
Result<std::vector<uint8_t>> RowBitmap(const Table& table,
                                       const storage::ExprPtr& filter,
                                       const ExecutionContext& ctx) {
  RELGO_ASSIGN_OR_RETURN(auto bound, BindClone(filter, table, ctx));
  std::vector<uint8_t> bitmap;
  if (!bound) return bitmap;
  bitmap.resize(table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    bitmap[r] = bound->EvaluateBool(table, r) ? 1 : 0;
  }
  return bitmap;
}

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

Result<TablePtr> ExecScanTable(const plan::PhysScanTable& op,
                               ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(auto table, ctx->catalog().GetTable(op.table));
  std::vector<int> raw_indexes;
  Schema schema = ScanSchema(*table, op.alias, op.projected_columns,
                             op.emit_rowid, &raw_indexes);
  auto out = std::make_shared<Table>(op.alias, schema);

  RELGO_ASSIGN_OR_RETURN(auto sel, FilteredSelection(*table, op.filter, *ctx));
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));

  size_t out_col = 0;
  if (op.emit_rowid) {
    Column& rid = out->column(out_col++);
    rid.Reserve(sel.size());
    for (uint64_t r : sel) rid.AppendInt(static_cast<int64_t>(r));
  }
  for (int raw : raw_indexes) {
    out->column(out_col++) = table->column(raw).Gather(sel);
  }
  out->FinishBulkAppend();
  return out;
}

Result<TablePtr> ExecFilter(const plan::PhysFilter& op, TablePtr child,
                            ExecutionContext* ctx) {
  if (!op.predicate) return child;
  RELGO_ASSIGN_OR_RETURN(auto sel,
                         FilteredSelection(*child, op.predicate, *ctx));
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  return GatherTable(*child, sel, child->name());
}

Result<TablePtr> ExecProject(const plan::PhysProject& op, TablePtr child,
                             ExecutionContext* ctx) {
  Schema schema;
  std::vector<size_t> src;
  for (const auto& [from, to] : op.columns) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(*child, from));
    RELGO_RETURN_NOT_OK(
        schema.AddColumn({to, child->schema().column(idx).type}));
    src.push_back(idx);
  }
  auto out = std::make_shared<Table>(child->name(), schema);
  for (size_t c = 0; c < src.size(); ++c) {
    out->column(c) = child->column(src[c]);
  }
  out->FinishBulkAppend();
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(out->num_rows()));
  return out;
}

/// Hash-joins two materialized tables on their key columns (names
/// resolved in each side's schema): the right side is the build side,
/// keyed by boxed Values; left rows stream in order and emit their matches
/// in build-row order. A row with a NULL key matches nothing. Output
/// schema: all left columns followed by all right columns except
/// `drop_right` (PATTERN_JOIN drops its duplicated shared variables) and
/// names already present.
Result<TablePtr> HashJoinTables(const Table& left, const Table& right,
                                const std::vector<std::string>& left_keys,
                                const std::vector<std::string>& right_keys,
                                const std::vector<std::string>& drop_right,
                                ExecutionContext* ctx) {
  std::vector<size_t> build_cols, probe_cols;
  for (const auto& k : right_keys) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(right, k));
    build_cols.push_back(idx);
  }
  for (const auto& k : left_keys) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(left, k));
    probe_cols.push_back(idx);
  }
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kHashBuild));
  std::unordered_map<GroupKey, std::vector<uint64_t>, GroupKeyHash> build;
  for (uint64_t r = 0; r < right.num_rows(); ++r) {
    GroupKey key = RowKey(right, build_cols, r);
    if (!HasNull(key)) build[std::move(key)].push_back(r);
  }

  std::vector<uint64_t> left_sel, right_sel;
  for (uint64_t r = 0; r < left.num_rows(); ++r) {
    GroupKey key = RowKey(left, probe_cols, r);
    auto it = HasNull(key) ? build.end() : build.find(key);
    if (it != build.end()) {
      for (uint64_t b : it->second) {
        left_sel.push_back(r);
        right_sel.push_back(b);
      }
    }
    if ((r & kInterruptCheckMask) == 0) {
      RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(left_sel.size()));

  // Output schema: left columns then right columns minus drop_right.
  Schema schema;
  for (const auto& def : left.schema().columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }
  std::vector<size_t> right_cols;
  for (size_t c = 0; c < right.schema().num_columns(); ++c) {
    const auto& def = right.schema().column(c);
    bool dropped = std::find(drop_right.begin(), drop_right.end(),
                             def.name) != drop_right.end();
    if (dropped || schema.FindColumn(def.name) >= 0) continue;
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
    right_cols.push_back(c);
  }

  auto out = std::make_shared<Table>("join", schema);
  size_t oc = 0;
  for (size_t c = 0; c < left.num_columns(); ++c) {
    out->column(oc++) = left.column(c).Gather(left_sel);
  }
  for (size_t c : right_cols) {
    out->column(oc++) = right.column(c).Gather(right_sel);
  }
  out->FinishBulkAppend();
  return out;
}

Result<TablePtr> ExecHashJoin(const plan::PhysHashJoin& op, TablePtr left,
                              TablePtr right, ExecutionContext* ctx) {
  return HashJoinTables(*left, *right, op.left_keys, op.right_keys, {}, ctx);
}

Result<TablePtr> ExecRidLookupJoin(const plan::PhysRidLookupJoin& op,
                                   TablePtr child, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("RID_JOIN requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(size_t rid_col,
                         ColumnIndex(*child, op.edge_rowid_column));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op.edge_label);
  int vlabel = op.dir == graph::Direction::kOut
                   ? ctx->mapping().FindVertexLabel(em.src_label)
                   : ctx->mapping().FindVertexLabel(em.dst_label);
  RELGO_ASSIGN_OR_RETURN(auto vtable, ctx->VertexTable(vlabel));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*vtable, op.vertex_filter, *ctx));

  std::vector<int> raw_indexes;
  Schema vschema = ScanSchema(*vtable, op.vertex_alias, op.vertex_columns,
                              op.emit_vertex_rowid, &raw_indexes);
  Schema schema;
  for (const auto& def : child->schema().columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }
  for (const auto& def : vschema.columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }

  std::vector<uint64_t> child_sel, vertex_sel;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    auto edge_row =
        static_cast<uint64_t>(child->column(rid_col).int_at(r));
    uint64_t v = op.dir == graph::Direction::kOut
                     ? ctx->index().EdgeSource(op.edge_label, edge_row)
                     : ctx->index().EdgeTarget(op.edge_label, edge_row);
    if (!bitmap.empty() && !bitmap[v]) continue;
    child_sel.push_back(r);
    vertex_sel.push_back(v);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(child_sel.size()));

  auto out = std::make_shared<Table>("rid_join", schema);
  size_t oc = 0;
  for (size_t c = 0; c < child->num_columns(); ++c) {
    out->column(oc++) = child->column(c).Gather(child_sel);
  }
  if (op.emit_vertex_rowid) {
    Column& rid = out->column(oc++);
    rid.Reserve(vertex_sel.size());
    for (uint64_t v : vertex_sel) rid.AppendInt(static_cast<int64_t>(v));
  }
  for (int raw : raw_indexes) {
    out->column(oc++) = vtable->column(raw).Gather(vertex_sel);
  }
  out->FinishBulkAppend();
  return out;
}

Result<TablePtr> ExecRidExpandJoin(const plan::PhysRidExpandJoin& op,
                                   TablePtr child, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("RID_EXPAND_JOIN requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(size_t rid_col,
                         ColumnIndex(*child, op.vertex_rowid_column));
  RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op.edge_label));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*etable, op.edge_filter, *ctx));

  std::vector<int> raw_indexes;
  Schema eschema = ScanSchema(*etable, op.edge_alias, op.edge_columns,
                              op.emit_edge_rowid, &raw_indexes);
  Schema schema;
  for (const auto& def : child->schema().columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }
  for (const auto& def : eschema.columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }

  std::vector<uint64_t> child_sel, edge_sel;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    auto v = static_cast<uint64_t>(child->column(rid_col).int_at(r));
    graph::AdjacencyList adj = ctx->index().Neighbors(op.edge_label, op.dir, v);
    for (size_t i = 0; i < adj.size; ++i) {
      uint64_t e = adj.edges[i];
      if (!bitmap.empty() && !bitmap[e]) continue;
      child_sel.push_back(r);
      edge_sel.push_back(e);
    }
    if ((r & kInterruptCheckMask) == 0) {
      RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(child_sel.size()));

  auto out = std::make_shared<Table>("rid_expand", schema);
  size_t oc = 0;
  for (size_t c = 0; c < child->num_columns(); ++c) {
    out->column(oc++) = child->column(c).Gather(child_sel);
  }
  if (op.emit_edge_rowid) {
    Column& rid = out->column(oc++);
    rid.Reserve(edge_sel.size());
    for (uint64_t e : edge_sel) rid.AppendInt(static_cast<int64_t>(e));
  }
  for (int raw : raw_indexes) {
    out->column(oc++) = etable->column(raw).Gather(edge_sel);
  }
  out->FinishBulkAppend();
  return out;
}

Result<TablePtr> ExecHashAggregate(const plan::PhysHashAggregate& op,
                                   TablePtr child, ExecutionContext* ctx) {
  std::vector<size_t> group_cols;
  for (const auto& g : op.group_by) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(*child, g));
    group_cols.push_back(idx);
  }
  std::vector<int> agg_cols;
  for (const auto& a : op.aggregates) {
    if (a.input_column.empty()) {
      agg_cols.push_back(-1);
    } else {
      RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(*child, a.input_column));
      agg_cols.push_back(static_cast<int>(idx));
    }
  }

  struct AggState {
    int64_t count = 0;
    Value min, max;
    double sum = 0;
    int64_t isum = 0;
  };
  std::unordered_map<GroupKey, std::vector<AggState>, GroupKeyHash> groups;
  std::vector<GroupKey> order;  // first-seen order for determinism
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    GroupKey key = RowKey(*child, group_cols, r);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, std::vector<AggState>(op.aggregates.size()))
               .first;
      order.push_back(std::move(key));
    }
    for (size_t a = 0; a < op.aggregates.size(); ++a) {
      AggState& st = it->second[a];
      st.count += 1;
      if (agg_cols[a] >= 0) {
        Value v = child->GetValue(r, static_cast<size_t>(agg_cols[a]));
        if (!v.is_null()) {
          if (st.min.is_null() || v < st.min) st.min = v;
          if (st.max.is_null() || st.max < v) st.max = v;
          if (v.type() == LogicalType::kInt64) st.isum += v.int_value();
          if (v.type() == LogicalType::kDouble) st.sum += v.double_value();
        }
      }
    }
  }

  Schema schema;
  for (size_t g = 0; g < op.group_by.size(); ++g) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(
        {op.group_by[g], child->schema().column(group_cols[g]).type}));
  }
  for (size_t a = 0; a < op.aggregates.size(); ++a) {
    LogicalType type = LogicalType::kInt64;
    if (op.aggregates[a].func != plan::AggFunc::kCount && agg_cols[a] >= 0) {
      type = child->schema().column(static_cast<size_t>(agg_cols[a])).type;
    }
    RELGO_RETURN_NOT_OK(
        schema.AddColumn({op.aggregates[a].output_name, type}));
  }

  auto out = std::make_shared<Table>("aggregate", schema);
  // SQL semantics: a global aggregate (no GROUP BY) over empty input still
  // yields one row (COUNT = 0, MIN/MAX/SUM = NULL).
  if (op.group_by.empty() && order.empty()) {
    std::vector<Value> row;
    for (const auto& a : op.aggregates) {
      row.push_back(a.func == plan::AggFunc::kCount ? Value::Int(0)
                                                    : Value::Null());
    }
    RELGO_RETURN_NOT_OK(out->AppendRow(row));
    RELGO_RETURN_NOT_OK(ctx->ChargeRows(1));
    return out;
  }
  auto emit = [&](std::vector<Value> row,
                  const std::vector<AggState>& states) -> Status {
    for (size_t a = 0; a < op.aggregates.size(); ++a) {
      const AggState& st = states[a];
      switch (op.aggregates[a].func) {
        case plan::AggFunc::kCount:
          row.push_back(Value::Int(st.count));
          break;
        case plan::AggFunc::kMin:
          row.push_back(st.min);
          break;
        case plan::AggFunc::kMax:
          row.push_back(st.max);
          break;
        case plan::AggFunc::kSum: {
          LogicalType type = schema.column(op.group_by.size() + a).type;
          row.push_back(type == LogicalType::kDouble ? Value::Double(st.sum)
                                                     : Value::Int(st.isum));
          break;
        }
      }
    }
    return out->AppendRow(row);
  };
  for (const auto& key : order) {
    RELGO_RETURN_NOT_OK(emit(key.values, groups[key]));
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(out->num_rows()));
  return out;
}

/// Stable sort over boxed key Values; charges the full row count.
Result<TablePtr> ExecOrderBy(const plan::PhysOrderBy& op, TablePtr child,
                             ExecutionContext* ctx) {
  std::vector<size_t> key_cols;
  for (const auto& k : op.keys) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(*child, k.column));
    key_cols.push_back(idx);
  }
  std::vector<uint64_t> sel(child->num_rows());
  std::iota(sel.begin(), sel.end(), 0);
  std::stable_sort(sel.begin(), sel.end(), [&](uint64_t a, uint64_t b) {
    return CompareSortKeyValues(
               op.keys,
               [&](size_t i) { return child->GetValue(a, key_cols[i]); },
               [&](size_t i) { return child->GetValue(b, key_cols[i]); }) <
           0;
  });
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  return GatherTable(*child, sel, child->name());
}

/// Pass-through (uncharged) when the limit is absent or not reached.
Result<TablePtr> ExecLimit(const plan::PhysLimit& op, TablePtr child,
                           ExecutionContext* ctx) {
  if (op.limit < 0 || static_cast<uint64_t>(op.limit) >= child->num_rows()) {
    return child;
  }
  std::vector<uint64_t> sel(static_cast<size_t>(op.limit));
  std::iota(sel.begin(), sel.end(), 0);
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  return GatherTable(*child, sel, child->name());
}

// ---------------------------------------------------------------------------
// Graph (binding table) operators
// ---------------------------------------------------------------------------

Result<TablePtr> ExecScanVertex(const plan::PhysScanVertex& op,
                                ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(auto vtable, ctx->VertexTable(op.vertex_label));
  auto out = std::make_shared<Table>("match", BindingSchema({op.var}));
  RELGO_ASSIGN_OR_RETURN(auto sel, FilteredSelection(*vtable, op.filter, *ctx));
  Column& col = out->column(0);
  col.Reserve(sel.size());
  for (uint64_t r : sel) col.AppendInt(static_cast<int64_t>(r));
  out->FinishBulkAppend();
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(out->num_rows()));
  return out;
}

/// Shared emit path for expand-style operators: gathers child rows by
/// `child_sel` and appends freshly built binding columns.
Result<TablePtr> BuildExpandedTable(
    const Table& child, const std::vector<uint64_t>& child_sel,
    const std::vector<std::pair<std::string, std::vector<int64_t>>>& new_cols,
    ExecutionContext* ctx) {
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(child_sel.size()));
  Schema schema;
  for (const auto& def : child.schema().columns()) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(def));
  }
  for (const auto& [name, _] : new_cols) {
    RELGO_RETURN_NOT_OK(schema.AddColumn({name, LogicalType::kInt64}));
  }
  auto out = std::make_shared<Table>("match", schema);
  size_t oc = 0;
  for (size_t c = 0; c < child.num_columns(); ++c) {
    out->column(oc++) = child.column(c).Gather(child_sel);
  }
  for (const auto& [_, vals] : new_cols) {
    Column& col = out->column(oc++);
    col.Reserve(vals.size());
    for (int64_t v : vals) col.AppendInt(v);
  }
  out->FinishBulkAppend();
  return out;
}

Result<TablePtr> ExecExpandEdge(const plan::PhysExpandEdge& op, TablePtr child,
                                ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("EXPAND_EDGE requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(size_t from_col, ColumnIndex(*child, op.from_var));
  RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op.edge_label));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*etable, op.edge_filter, *ctx));
  std::vector<uint64_t> child_sel;
  std::vector<int64_t> edge_vals;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    auto v = static_cast<uint64_t>(child->column(from_col).int_at(r));
    graph::AdjacencyList adj = ctx->index().Neighbors(op.edge_label, op.dir, v);
    for (size_t i = 0; i < adj.size; ++i) {
      uint64_t e = adj.edges[i];
      if (!bitmap.empty() && !bitmap[e]) continue;
      child_sel.push_back(r);
      edge_vals.push_back(static_cast<int64_t>(e));
    }
    if ((r & kInterruptCheckMask) == 0) {
      RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
    }
  }
  return BuildExpandedTable(*child, child_sel, {{op.edge_var, edge_vals}},
                            ctx);
}

Result<TablePtr> ExecGetVertex(const plan::PhysGetVertex& op, TablePtr child,
                               ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("GET_VERTEX requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(size_t edge_col, ColumnIndex(*child, op.edge_var));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op.edge_label);
  int vlabel = op.dir == graph::Direction::kOut
                   ? ctx->mapping().FindVertexLabel(em.dst_label)
                   : ctx->mapping().FindVertexLabel(em.src_label);
  RELGO_ASSIGN_OR_RETURN(auto vtable, ctx->VertexTable(vlabel));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*vtable, op.vertex_filter, *ctx));
  std::vector<uint64_t> child_sel;
  std::vector<int64_t> vertex_vals;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    auto e = static_cast<uint64_t>(child->column(edge_col).int_at(r));
    uint64_t v = op.dir == graph::Direction::kOut
                     ? ctx->index().EdgeTarget(op.edge_label, e)
                     : ctx->index().EdgeSource(op.edge_label, e);
    if (!bitmap.empty() && !bitmap[v]) continue;
    child_sel.push_back(r);
    vertex_vals.push_back(static_cast<int64_t>(v));
  }
  return BuildExpandedTable(*child, child_sel, {{op.to_var, vertex_vals}},
                            ctx);
}

Result<TablePtr> ExecExpand(const plan::PhysExpand& op, TablePtr child,
                            ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(size_t from_col, ColumnIndex(*child, op.from_var));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op.edge_label);
  int to_label = op.dir == graph::Direction::kOut
                     ? ctx->mapping().FindVertexLabel(em.dst_label)
                     : ctx->mapping().FindVertexLabel(em.src_label);
  RELGO_ASSIGN_OR_RETURN(auto to_table, ctx->VertexTable(to_label));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*to_table, op.vertex_filter, *ctx));

  std::vector<uint64_t> child_sel;
  std::vector<int64_t> to_vals;
  std::vector<int64_t> edge_vals;
  bool want_edge = !op.edge_var.empty();

  if (op.use_index && ctx->has_index()) {
    for (uint64_t r = 0; r < child->num_rows(); ++r) {
      auto v = static_cast<uint64_t>(child->column(from_col).int_at(r));
      graph::AdjacencyList adj =
          ctx->index().Neighbors(op.edge_label, op.dir, v);
      for (size_t i = 0; i < adj.size; ++i) {
        uint64_t nbr = adj.neighbors[i];
        if (!bitmap.empty() && !bitmap[nbr]) continue;
        child_sel.push_back(r);
        to_vals.push_back(static_cast<int64_t>(nbr));
        if (want_edge) edge_vals.push_back(static_cast<int64_t>(adj.edges[i]));
      }
      if ((r & kInterruptCheckMask) == 0) {
        RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
      }
    }
  } else {
    // Index-free reduction (RelGoHash): hash join against the edge relation
    // on the FK key, then a PK-index lookup into the target vertex relation.
    RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op.edge_label));
    int from_label = op.dir == graph::Direction::kOut
                         ? ctx->mapping().FindVertexLabel(em.src_label)
                         : ctx->mapping().FindVertexLabel(em.dst_label);
    RELGO_ASSIGN_OR_RETURN(auto from_table, ctx->VertexTable(from_label));
    const graph::VertexMapping& from_vm =
        ctx->mapping().vertex_mapping(from_label);
    const graph::VertexMapping& to_vm = ctx->mapping().vertex_mapping(to_label);

    const std::string& from_fk = op.dir == graph::Direction::kOut
                                     ? em.src_key_column
                                     : em.dst_key_column;
    const std::string& to_fk = op.dir == graph::Direction::kOut
                                   ? em.dst_key_column
                                   : em.src_key_column;
    const storage::Column* from_fk_col = etable->FindColumn(from_fk);
    const storage::Column* to_fk_col = etable->FindColumn(to_fk);
    const storage::Column* from_key_col =
        from_table->FindColumn(from_vm.key_column);
    if (from_fk_col == nullptr || to_fk_col == nullptr ||
        from_key_col == nullptr) {
      return Status::Internal("bad RGMapping columns in EXPAND(hash)");
    }
    RELGO_ASSIGN_OR_RETURN(const auto* to_key_index,
                           to_table->GetKeyIndex(to_vm.key_column));
    // Build: FK value -> edge rows; stream the bindings.
    std::unordered_map<int64_t, std::vector<uint64_t>> build;
    build.reserve(etable->num_rows() * 2);
    for (uint64_t e = 0; e < etable->num_rows(); ++e) {
      if (from_fk_col->is_valid(e)) build[from_fk_col->int_at(e)].push_back(e);
    }
    for (uint64_t r = 0; r < child->num_rows(); ++r) {
      auto v = static_cast<uint64_t>(child->column(from_col).int_at(r));
      auto it = from_key_col->is_valid(v) ? build.find(from_key_col->int_at(v))
                                          : build.end();
      if (it != build.end()) {
        for (uint64_t e : it->second) {
          auto to_it = to_key_index->find(to_fk_col->int_at(e));
          if (to_it == to_key_index->end()) continue;
          uint64_t nbr = to_it->second;
          if (!bitmap.empty() && !bitmap[nbr]) continue;
          child_sel.push_back(r);
          to_vals.push_back(static_cast<int64_t>(nbr));
          if (want_edge) edge_vals.push_back(static_cast<int64_t>(e));
        }
      }
      if ((r & kInterruptCheckMask) == 0) {
        RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
      }
    }
  }

  std::vector<std::pair<std::string, std::vector<int64_t>>> new_cols;
  new_cols.emplace_back(op.to_var, std::move(to_vals));
  if (want_edge) new_cols.emplace_back(op.edge_var, std::move(edge_vals));
  return BuildExpandedTable(*child, child_sel, new_cols, ctx);
}

Result<TablePtr> ExecExpandIntersect(const plan::PhysExpandIntersect& op,
                                     TablePtr child, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument(
        "EXPAND_INTERSECT requires the graph index");
  }
  size_t k = op.from_vars.size();
  std::vector<size_t> from_cols(k);
  for (size_t i = 0; i < k; ++i) {
    RELGO_ASSIGN_OR_RETURN(from_cols[i], ColumnIndex(*child, op.from_vars[i]));
  }
  // The target vertex label (for the optional filter) comes from the first
  // leaf's mapping.
  const graph::EdgeMapping& em0 =
      ctx->mapping().edge_mapping(op.edge_labels[0]);
  int to_label = op.dirs[0] == graph::Direction::kOut
                     ? ctx->mapping().FindVertexLabel(em0.dst_label)
                     : ctx->mapping().FindVertexLabel(em0.src_label);
  RELGO_ASSIGN_OR_RETURN(auto to_table, ctx->VertexTable(to_label));
  RELGO_ASSIGN_OR_RETURN(auto bitmap,
                         RowBitmap(*to_table, op.vertex_filter, *ctx));
  bool want_edges = false;
  for (const auto& ev : op.edge_vars) want_edges |= !ev.empty();

  std::vector<uint64_t> child_sel;
  std::vector<int64_t> to_vals;
  std::vector<std::vector<int64_t>> edge_vals(k);

  std::vector<graph::AdjacencyList> lists(k);
  std::vector<size_t> pos(k);
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    for (size_t i = 0; i < k; ++i) {
      auto v = static_cast<uint64_t>(child->column(from_cols[i]).int_at(r));
      lists[i] = ctx->index().Neighbors(op.edge_labels[i], op.dirs[i], v);
      pos[i] = 0;
    }
    // k-way sorted intersection over (possibly duplicated) neighbor runs.
    while (true) {
      bool done = false;
      uint64_t candidate = 0;
      for (size_t i = 0; i < k; ++i) {
        if (pos[i] >= lists[i].size) {
          done = true;
          break;
        }
        candidate = std::max(candidate, lists[i].neighbors[pos[i]]);
      }
      if (done) break;
      bool aligned = true;
      for (size_t i = 0; i < k; ++i) {
        while (pos[i] < lists[i].size &&
               lists[i].neighbors[pos[i]] < candidate) {
          ++pos[i];
        }
        if (pos[i] >= lists[i].size ||
            lists[i].neighbors[pos[i]] != candidate) {
          aligned = false;
        }
      }
      if (!aligned) continue;  // some list advanced past; realign on new max
      // All lists point at `candidate`: collect run lengths (parallel
      // edges) and emit the cross product of edge bindings.
      std::vector<std::pair<size_t, size_t>> runs(k);  // [begin, end)
      for (size_t i = 0; i < k; ++i) {
        size_t b = pos[i];
        while (pos[i] < lists[i].size &&
               lists[i].neighbors[pos[i]] == candidate) {
          ++pos[i];
        }
        runs[i] = {b, pos[i]};
      }
      bool pass = bitmap.empty() || bitmap[candidate] != 0;
      if (pass) {
        // Cross product over runs (usually 1x1x...).
        std::vector<size_t> cursor(k);
        for (size_t i = 0; i < k; ++i) cursor[i] = runs[i].first;
        while (true) {
          child_sel.push_back(r);
          to_vals.push_back(static_cast<int64_t>(candidate));
          for (size_t i = 0; i < k; ++i) {
            edge_vals[i].push_back(
                static_cast<int64_t>(lists[i].edges[cursor[i]]));
          }
          // Advance the mixed-radix cursor.
          size_t i = 0;
          for (; i < k; ++i) {
            if (++cursor[i] < runs[i].second) break;
            cursor[i] = runs[i].first;
          }
          if (i == k) break;
        }
      }
    }
    if ((r & kInterruptCheckMask) == 0) {
      RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
    }
  }

  std::vector<std::pair<std::string, std::vector<int64_t>>> new_cols;
  new_cols.emplace_back(op.to_var, std::move(to_vals));
  if (want_edges) {
    for (size_t i = 0; i < k; ++i) {
      if (!op.edge_vars[i].empty()) {
        new_cols.emplace_back(op.edge_vars[i], std::move(edge_vals[i]));
      }
    }
  }
  return BuildExpandedTable(*child, child_sel, new_cols, ctx);
}

Result<TablePtr> ExecEdgeVerify(const plan::PhysEdgeVerify& op, TablePtr child,
                                ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(size_t src_col, ColumnIndex(*child, op.src_var));
  RELGO_ASSIGN_OR_RETURN(size_t dst_col, ColumnIndex(*child, op.dst_var));
  bool want_edge = !op.edge_var.empty();

  std::vector<uint64_t> child_sel;
  std::vector<int64_t> edge_vals;

  if (op.use_index && ctx->has_index()) {
    for (uint64_t r = 0; r < child->num_rows(); ++r) {
      auto s = static_cast<uint64_t>(child->column(src_col).int_at(r));
      auto d = static_cast<uint64_t>(child->column(dst_col).int_at(r));
      graph::AdjacencyList adj =
          ctx->index().Neighbors(op.edge_label, op.dir, s);
      // Sorted by neighbor: binary search the run of `d`. Bag semantics:
      // each parallel edge contributes one output row even when the edge
      // binding itself was trimmed.
      const uint64_t* begin = adj.neighbors;
      const uint64_t* end = adj.neighbors + adj.size;
      const uint64_t* lo = std::lower_bound(begin, end, d);
      for (const uint64_t* p = lo; p != end && *p == d; ++p) {
        child_sel.push_back(r);
        if (want_edge) {
          edge_vals.push_back(static_cast<int64_t>(adj.edges[p - begin]));
        }
      }
      if ((r & kInterruptCheckMask) == 0) {
        RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
      }
    }
  } else {
    // Hash implementation on (src_key, dst_key).
    const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op.edge_label);
    int src_label = ctx->mapping().FindVertexLabel(
        op.dir == graph::Direction::kOut ? em.src_label : em.dst_label);
    int dst_label = ctx->mapping().FindVertexLabel(
        op.dir == graph::Direction::kOut ? em.dst_label : em.src_label);
    RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op.edge_label));
    RELGO_ASSIGN_OR_RETURN(auto stable, ctx->VertexTable(src_label));
    RELGO_ASSIGN_OR_RETURN(auto dtable, ctx->VertexTable(dst_label));
    const storage::Column* skey = stable->FindColumn(
        ctx->mapping().vertex_mapping(src_label).key_column);
    const storage::Column* dkey = dtable->FindColumn(
        ctx->mapping().vertex_mapping(dst_label).key_column);
    const storage::Column* sfk = etable->FindColumn(
        op.dir == graph::Direction::kOut ? em.src_key_column
                                         : em.dst_key_column);
    const storage::Column* dfk = etable->FindColumn(
        op.dir == graph::Direction::kOut ? em.dst_key_column
                                         : em.src_key_column);
    // Build: (src key, dst key) -> edge rows; stream the bindings.
    std::unordered_map<std::pair<int64_t, int64_t>, std::vector<uint64_t>,
                       PairHash>
        build;
    build.reserve(etable->num_rows() * 2);
    for (uint64_t e = 0; e < etable->num_rows(); ++e) {
      if (sfk->is_valid(e) && dfk->is_valid(e)) {
        build[{sfk->int_at(e), dfk->int_at(e)}].push_back(e);
      }
    }
    for (uint64_t r = 0; r < child->num_rows(); ++r) {
      auto s = static_cast<uint64_t>(child->column(src_col).int_at(r));
      auto d = static_cast<uint64_t>(child->column(dst_col).int_at(r));
      auto it = skey->is_valid(s) && dkey->is_valid(d)
                    ? build.find({skey->int_at(s), dkey->int_at(d)})
                    : build.end();
      if (it != build.end()) {
        for (uint64_t e : it->second) {
          child_sel.push_back(r);
          if (want_edge) edge_vals.push_back(static_cast<int64_t>(e));
        }
      }
      if ((r & kInterruptCheckMask) == 0) {
        RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
      }
    }
  }

  std::vector<std::pair<std::string, std::vector<int64_t>>> new_cols;
  if (want_edge) new_cols.emplace_back(op.edge_var, std::move(edge_vals));
  return BuildExpandedTable(*child, child_sel, new_cols, ctx);
}

Result<TablePtr> ExecPatternJoin(const plan::PhysPatternJoin& op,
                                 TablePtr left, TablePtr right,
                                 ExecutionContext* ctx) {
  return HashJoinTables(*left, *right, op.common_vars, op.common_vars,
                        op.common_vars, ctx);
}

Result<TablePtr> ExecVertexFilter(const plan::PhysVertexFilter& op,
                                  TablePtr child, ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(size_t var_col, ColumnIndex(*child, op.var));
  storage::TablePtr base;
  if (op.is_edge) {
    RELGO_ASSIGN_OR_RETURN(base, ctx->EdgeTable(op.label));
  } else {
    RELGO_ASSIGN_OR_RETURN(base, ctx->VertexTable(op.label));
  }
  RELGO_ASSIGN_OR_RETURN(auto bitmap, RowBitmap(*base, op.predicate, *ctx));
  std::vector<uint64_t> sel;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    auto rid = static_cast<uint64_t>(child->column(var_col).int_at(r));
    if (bitmap.empty() || bitmap[rid]) sel.push_back(r);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  return GatherTable(*child, sel, child->name());
}

Result<TablePtr> ExecNotEqual(const plan::PhysNotEqual& op, TablePtr child,
                              ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(size_t a, ColumnIndex(*child, op.var_a));
  RELGO_ASSIGN_OR_RETURN(size_t b, ColumnIndex(*child, op.var_b));
  std::vector<uint64_t> sel;
  for (uint64_t r = 0; r < child->num_rows(); ++r) {
    if (child->column(a).int_at(r) != child->column(b).int_at(r)) {
      sel.push_back(r);
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  return GatherTable(*child, sel, child->name());
}

Result<TablePtr> ExecScanGraphTable(const plan::PhysScanGraphTable& op,
                                    TablePtr binding, ExecutionContext* ctx) {
  // Resolve var -> (is_edge, label).
  auto resolve = [&](const std::string& var, bool* is_edge,
                     int* label) -> Status {
    for (const auto& [v, l] : op.vertex_var_labels) {
      if (v == var) {
        *is_edge = false;
        *label = l;
        return Status::OK();
      }
    }
    for (const auto& [v, l] : op.edge_var_labels) {
      if (v == var) {
        *is_edge = true;
        *label = l;
        return Status::OK();
      }
    }
    return Status::NotFound("SCAN_GRAPH_TABLE: unknown var '" + var + "'");
  };

  Schema schema;
  struct Source {
    storage::TablePtr base;
    int raw_col = -1;  // -1 == the row id itself
    size_t binding_col = 0;
  };
  std::vector<Source> sources;

  for (const auto& rid_var : op.rowid_passthrough) {
    RELGO_ASSIGN_OR_RETURN(size_t bcol, ColumnIndex(*binding, rid_var));
    RELGO_RETURN_NOT_OK(
        schema.AddColumn({rid_var + ".$rid", LogicalType::kInt64}));
    sources.push_back({nullptr, -1, bcol});
  }
  for (const auto& proj : op.projections) {
    bool is_edge = false;
    int label = -1;
    RELGO_RETURN_NOT_OK(resolve(proj.var, &is_edge, &label));
    storage::TablePtr base;
    if (is_edge) {
      RELGO_ASSIGN_OR_RETURN(base, ctx->EdgeTable(label));
    } else {
      RELGO_ASSIGN_OR_RETURN(base, ctx->VertexTable(label));
    }
    RELGO_ASSIGN_OR_RETURN(size_t bcol, ColumnIndex(*binding, proj.var));
    if (proj.column == "$rid") {
      RELGO_RETURN_NOT_OK(
          schema.AddColumn({proj.output_name, LogicalType::kInt64}));
      sources.push_back({nullptr, -1, bcol});
    } else {
      RELGO_ASSIGN_OR_RETURN(size_t raw,
                             base->schema().GetColumnIndex(proj.column));
      RELGO_RETURN_NOT_OK(schema.AddColumn(
          {proj.output_name, base->schema().column(raw).type}));
      sources.push_back({base, static_cast<int>(raw), bcol});
    }
  }

  auto out = std::make_shared<Table>("graph_table", schema);
  for (size_t s = 0; s < sources.size(); ++s) {
    const Source& src = sources[s];
    Column& col = out->column(s);
    col.Reserve(binding->num_rows());
    const Column& bind_col = binding->column(src.binding_col);
    if (src.raw_col < 0) {
      for (uint64_t r = 0; r < binding->num_rows(); ++r) {
        col.AppendInt(bind_col.int_at(r));
      }
    } else {
      const Column& raw = src.base->column(static_cast<size_t>(src.raw_col));
      for (uint64_t r = 0; r < binding->num_rows(); ++r) {
        col.AppendFrom(raw, static_cast<uint64_t>(bind_col.int_at(r)));
      }
    }
  }
  out->FinishBulkAppend();
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(out->num_rows()));
  return out;
}

Result<TablePtr> RunImpl(const PhysicalOp& op, ExecutionContext* ctx);

/// Dispatch wrapper recording per-operator profiles when enabled. The
/// materializing engine runs each operator exactly once, so invocations is
/// 1 and wall_ms is the operator's subtree wall time; rows_in is read off
/// the children's already-recorded outputs (children finish before their
/// parent is recorded).
Result<TablePtr> RunProfiled(const PhysicalOp& op, ExecutionContext* ctx) {
  if (ctx->profile() == nullptr) return RunImpl(op, ctx);
  Timer timer;
  auto result = RunImpl(op, ctx);
  OperatorProfile prof;
  prof.invocations = 1;
  prof.wall_ms = timer.ElapsedMillis();
  if (result.ok()) prof.rows_out = (*result)->num_rows();
  for (const auto& child : op.children) {
    if (const OperatorProfile* cp = ctx->profile()->Find(child.get())) {
      prof.rows_in += cp->rows_out;
    }
  }
  ctx->profile()->Accumulate(&op, prof);
  return result;
}

Result<TablePtr> RunImpl(const PhysicalOp& op, ExecutionContext* ctx) {
  // Per-operator dispatch is the materializing engine's morsel-boundary
  // analog: both the interrupt check and the fault site live here.
  RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kMorselBoundary));

  // Leaf operators.
  switch (op.kind) {
    case OpKind::kScanTable:
      return ExecScanTable(static_cast<const plan::PhysScanTable&>(op), ctx);
    case OpKind::kScanVertex:
      return ExecScanVertex(static_cast<const plan::PhysScanVertex&>(op),
                            ctx);
    case OpKind::kNaiveMatch:
      return NaiveMatch(static_cast<const plan::PhysNaiveMatch&>(op).pattern,
                        ctx);
    default:
      break;
  }

  // Unary / binary operators: evaluate children first.
  std::vector<TablePtr> inputs;
  inputs.reserve(op.children.size());
  for (const auto& child : op.children) {
    RELGO_ASSIGN_OR_RETURN(auto table, RunProfiled(*child, ctx));
    inputs.push_back(std::move(table));
  }

  switch (op.kind) {
    case OpKind::kFilter:
      return ExecFilter(static_cast<const plan::PhysFilter&>(op), inputs[0],
                        ctx);
    case OpKind::kProject:
      return ExecProject(static_cast<const plan::PhysProject&>(op), inputs[0],
                         ctx);
    case OpKind::kHashJoin:
      return ExecHashJoin(static_cast<const plan::PhysHashJoin&>(op),
                          inputs[0], inputs[1], ctx);
    case OpKind::kRidLookupJoin:
      return ExecRidLookupJoin(
          static_cast<const plan::PhysRidLookupJoin&>(op), inputs[0], ctx);
    case OpKind::kRidExpandJoin:
      return ExecRidExpandJoin(
          static_cast<const plan::PhysRidExpandJoin&>(op), inputs[0], ctx);
    case OpKind::kHashAggregate:
      return ExecHashAggregate(
          static_cast<const plan::PhysHashAggregate&>(op), inputs[0], ctx);
    case OpKind::kOrderBy:
      return ExecOrderBy(static_cast<const plan::PhysOrderBy&>(op), inputs[0],
                         ctx);
    case OpKind::kLimit:
      return ExecLimit(static_cast<const plan::PhysLimit&>(op), inputs[0],
                       ctx);
    case OpKind::kExpandEdge:
      return ExecExpandEdge(static_cast<const plan::PhysExpandEdge&>(op),
                            inputs[0], ctx);
    case OpKind::kGetVertex:
      return ExecGetVertex(static_cast<const plan::PhysGetVertex&>(op),
                           inputs[0], ctx);
    case OpKind::kExpand:
      return ExecExpand(static_cast<const plan::PhysExpand&>(op), inputs[0],
                        ctx);
    case OpKind::kExpandIntersect:
      return ExecExpandIntersect(
          static_cast<const plan::PhysExpandIntersect&>(op), inputs[0], ctx);
    case OpKind::kEdgeVerify:
      return ExecEdgeVerify(static_cast<const plan::PhysEdgeVerify&>(op),
                            inputs[0], ctx);
    case OpKind::kPatternJoin:
      return ExecPatternJoin(static_cast<const plan::PhysPatternJoin&>(op),
                             inputs[0], inputs[1], ctx);
    case OpKind::kVertexFilter:
      return ExecVertexFilter(static_cast<const plan::PhysVertexFilter&>(op),
                              inputs[0], ctx);
    case OpKind::kNotEqual:
      return ExecNotEqual(static_cast<const plan::PhysNotEqual&>(op),
                          inputs[0], ctx);
    case OpKind::kScanGraphTable:
      return ExecScanGraphTable(
          static_cast<const plan::PhysScanGraphTable&>(op), inputs[0], ctx);
    default:
      return Status::NotImplemented(std::string("operator ") +
                                    plan::OpKindName(op.kind));
  }
}

}  // namespace

Result<TablePtr> Executor::Run(const PhysicalOp& op, ExecutionContext* ctx) {
  return RunProfiled(op, ctx);
}

}  // namespace exec
}  // namespace relgo
