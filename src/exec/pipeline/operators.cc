#include "exec/pipeline/operators.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "common/fault.h"
#include "common/timer.h"
#include "exec/exec_common.h"
#include "exec/pipeline/scheduler.h"
#include "exec/scan_cache.h"

namespace relgo {
namespace exec {
namespace pipeline {

using storage::Column;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

namespace {

/// Evaluates `filter` once per row of `table` into a validity bitmap
/// (empty when there is no filter). The pipeline engine's expansion-style
/// operators consult the bitmap per adjacency entry, turning
/// per-expansion expression evaluation into a single table pass computed
/// during single-threaded operator Prepare, so workers only do bitmap
/// loads.
///
/// Two acceleration layers, both semantics-preserving: the predicate is
/// lowered to vectorized kernels when the tree is lowerable (row-at-a-time
/// fallback otherwise), and the finished bitmap is published to the
/// cross-query ScanCache ("bitmap|..." namespace) so repeated expansions
/// replay it instead of re-evaluating.
Result<SharedBitmap> FilterBitmap(const storage::TablePtr& table,
                                  const storage::ExprPtr& filter,
                                  ExecutionContext* ctx) {
  if (!filter) return SharedBitmap();

  // Replay an earlier query's bitmap for the same (table, predicate)
  // signature and table version. The "bitmap|" namespace never collides
  // with the selection-vector namespaces ("scan|", "vscan|").
  ScanCache* cache = ctx->scan_cache();
  std::string key;
  uint64_t version = 0;
  if (cache != nullptr) {
    key = ScanCache::Key("bitmap", table->name(), filter);
    version = table->version();
    if (ScanCache::BitmapPtr hit = cache->GetBitmap(key, version)) {
      ctx->CountScanCacheHit();
      return SharedBitmap(std::move(hit));
    }
  }

  // Bind a clone: the plan may share this expression tree with the query
  // it was optimized from, and concurrent executions of the same query
  // must not race on the column indexes Bind resolves.
  storage::ExprPtr bound = filter->Clone();
  RELGO_RETURN_NOT_OK(bound->Bind(table->schema()));

  auto bitmap = std::make_shared<std::vector<uint8_t>>();
  std::unique_ptr<vector::CompiledPredicate> compiled =
      vector::CompiledPredicate::Compile(*bound, table->schema(),
                                         table.get());
  if (compiled != nullptr) {
    std::vector<const storage::Column*> columns;
    columns.reserve(table->num_columns());
    for (size_t c = 0; c < table->num_columns(); ++c) {
      columns.push_back(&table->column(c));
    }
    compiled->FilterBitmap(columns.data(), table->num_rows(), bitmap.get());
  } else {
    bitmap->resize(table->num_rows());
    for (uint64_t r = 0; r < table->num_rows(); ++r) {
      (*bitmap)[r] = bound->EvaluateBool(*table, r) ? 1 : 0;
    }
  }

  if (cache != nullptr) {
    // Deferred publication (see ExecutionContext): visible to other
    // queries only once this query commits successfully.
    RELGO_RETURN_NOT_OK(
        fault::MaybeInject(fault::Site::kScanCachePublish));
    ctx->QueuePutBitmap(std::move(key), version, bitmap);
  }
  return SharedBitmap(std::move(bitmap));
}

/// Shared emit path for expand-style operators: gathers input rows by `sel`
/// and appends freshly built int64 binding columns (in the order the op's
/// Prepare added them to its output schema). The batch analog of the seed
/// executor's BuildExpandedTable.
Status EmitExpanded(const Batch& in, const std::vector<uint64_t>& sel,
                    const std::vector<std::vector<int64_t>>& new_cols,
                    Batch* out, ExecutionContext* ctx) {
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  *out = in.Gather(sel);
  for (const auto& vals : new_cols) {
    Column col(LogicalType::kInt64);
    col.Reserve(vals.size());
    for (int64_t v : vals) col.AppendInt(v);
    out->AddOwned(std::move(col));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

Status FilterOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  output_schema_ = input;
  // Bind a clone: the plan may share the predicate tree with the query it
  // was optimized from, and concurrent executions must not race on the
  // resolved column indexes Bind writes.
  predicate_ = op_.predicate ? op_.predicate->Clone() : nullptr;
  if (predicate_) RELGO_RETURN_NOT_OK(predicate_->Bind(input));
  // Lower once per execution; workers evaluate the compiled program
  // (bit-identical to EvaluateBool) instead of walking the tree per row.
  // Schema-only compile: a mid-pipeline filter sees no stable source
  // table at Prepare, so string leaves keep the payload kernels
  // (dictionary lowering needs a compile-time column to fold constants
  // against). Scan pushdown compiles against the base table and covers
  // the hot string predicates; see compiled_expr.h.
  if (predicate_) {
    compiled_ = vector::CompiledPredicate::Compile(*predicate_, input);
  }
  return Status::OK();
}

Status FilterOp::Process(const Batch& in, Batch* out,
                         ExecutionContext* ctx) const {
  if (!predicate_) {
    *out = in;
    return Status::OK();
  }
  auto cols = in.ColumnPointers();
  std::vector<uint64_t> sel;
  if (compiled_ != nullptr) {
    compiled_->FilterRange(cols.data(), 0, in.num_rows(), &sel);
  } else {
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      if (predicate_->EvaluateBool(cols.data(), r)) sel.push_back(r);
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  *out = in.Gather(sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

Status ProjectOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  output_schema_ = Schema();
  src_cols_.clear();
  for (const auto& [from, to] : op_.columns) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, input.GetColumnIndex(from));
    RELGO_RETURN_NOT_OK(
        output_schema_.AddColumn({to, input.column(idx).type}));
    src_cols_.push_back(idx);
  }
  return Status::OK();
}

Status ProjectOp::Process(const Batch& in, Batch* out,
                          ExecutionContext* ctx) const {
  for (size_t src : src_cols_) out->AddColumn(in.column_ref(src));
  out->SetNumRows(in.num_rows());
  return ctx->ChargeRows(in.num_rows());
}

// ---------------------------------------------------------------------------
// HashJoinProbeOp
// ---------------------------------------------------------------------------

Status HashJoinProbeOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  probe_cols_.clear();
  for (const auto& k : left_keys_) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, input.GetColumnIndex(k));
    probe_cols_.push_back(idx);
  }
  // Output schema: probe columns, then build columns minus drop_right minus
  // duplicate names (matches the reference interpreter's hash join).
  output_schema_ = Schema();
  for (const auto& def : input.columns()) {
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
  }
  build_out_cols_.clear();
  for (size_t c = 0; c < build_->schema().num_columns(); ++c) {
    const auto& def = build_->schema().column(c);
    bool dropped = std::find(drop_right_.begin(), drop_right_.end(),
                             def.name) != drop_right_.end();
    if (dropped || output_schema_.FindColumn(def.name) >= 0) continue;
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
    build_out_cols_.push_back(c);
  }
  return Status::OK();
}

Status HashJoinProbeOp::Process(const Batch& in, Batch* out,
                                ExecutionContext* ctx) const {
  // Hoist the probe-key payload spans once per batch; the per-row probe
  // then touches raw int64 slots only (see JoinHashTable's span
  // overload). String keys bind a ProbeView instead: dictionary codes
  // when the batch still carries the build dictionary, payload bytes
  // (or per-row translation) otherwise.
  const bool string_keys = ht_->has_string_keys();
  exec::JoinHashTable::ProbeView view;
  std::vector<const int64_t*> keys;
  if (string_keys) {
    RELGO_RETURN_NOT_OK(ht_->BindProbe(in, probe_cols_, &view));
  } else {
    keys.reserve(probe_cols_.size());
    for (size_t c : probe_cols_) keys.push_back(in.column(c).data_int64());
  }

  std::vector<uint64_t> left_sel, right_sel, matches;
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    matches.clear();
    if (string_keys) {
      ht_->Probe(view, r, &matches);
    } else {
      ht_->Probe(keys.data(), r, &matches);
    }
    for (uint64_t b : matches) {
      left_sel.push_back(r);
      right_sel.push_back(b);
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(left_sel.size()));
  *out = in.Gather(left_sel);
  for (size_t c : build_out_cols_) {
    out->AddOwned(build_->column(c).Gather(right_sel));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RidLookupJoinOp
// ---------------------------------------------------------------------------

Status RidLookupJoinOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("RID_JOIN requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(rid_col_, input.GetColumnIndex(op_.edge_rowid_column));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op_.edge_label);
  int vlabel = op_.dir == graph::Direction::kOut
                   ? ctx->mapping().FindVertexLabel(em.src_label)
                   : ctx->mapping().FindVertexLabel(em.dst_label);
  RELGO_ASSIGN_OR_RETURN(vtable_, ctx->VertexTable(vlabel));
  RELGO_ASSIGN_OR_RETURN(bitmap_,
                         FilterBitmap(vtable_, op_.vertex_filter, ctx));

  raw_indexes_.clear();
  Schema vschema = ScanSchema(*vtable_, op_.vertex_alias, op_.vertex_columns,
                              op_.emit_vertex_rowid, &raw_indexes_);
  output_schema_ = Schema();
  for (const auto& def : input.columns()) {
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
  }
  for (const auto& def : vschema.columns()) {
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
  }
  return Status::OK();
}

Status RidLookupJoinOp::Process(const Batch& in, Batch* out,
                                ExecutionContext* ctx) const {
  std::vector<uint64_t> in_sel, vertex_sel;
  const Column& rid = in.column(rid_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    auto edge_row = static_cast<uint64_t>(rid.int_at(r));
    uint64_t v = op_.dir == graph::Direction::kOut
                     ? ctx->index().EdgeSource(op_.edge_label, edge_row)
                     : ctx->index().EdgeTarget(op_.edge_label, edge_row);
    if (!bitmap_.empty() && !bitmap_[v]) continue;
    in_sel.push_back(r);
    vertex_sel.push_back(v);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(in_sel.size()));

  *out = in.Gather(in_sel);
  if (op_.emit_vertex_rowid) {
    Column col(LogicalType::kInt64);
    col.Reserve(vertex_sel.size());
    for (uint64_t v : vertex_sel) col.AppendInt(static_cast<int64_t>(v));
    out->AddOwned(std::move(col));
  }
  for (int raw : raw_indexes_) {
    out->AddOwned(vtable_->column(raw).Gather(vertex_sel));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RidExpandJoinOp
// ---------------------------------------------------------------------------

Status RidExpandJoinOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("RID_EXPAND_JOIN requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(rid_col_,
                         input.GetColumnIndex(op_.vertex_rowid_column));
  RELGO_ASSIGN_OR_RETURN(etable_, ctx->EdgeTable(op_.edge_label));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(etable_, op_.edge_filter, ctx));

  raw_indexes_.clear();
  Schema eschema = ScanSchema(*etable_, op_.edge_alias, op_.edge_columns,
                              op_.emit_edge_rowid, &raw_indexes_);
  output_schema_ = Schema();
  for (const auto& def : input.columns()) {
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
  }
  for (const auto& def : eschema.columns()) {
    RELGO_RETURN_NOT_OK(output_schema_.AddColumn(def));
  }
  return Status::OK();
}

Status RidExpandJoinOp::Process(const Batch& in, Batch* out,
                                ExecutionContext* ctx) const {
  std::vector<uint64_t> in_sel, edge_sel;
  const Column& rid = in.column(rid_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    auto v = static_cast<uint64_t>(rid.int_at(r));
    graph::AdjacencyList adj =
        ctx->index().Neighbors(op_.edge_label, op_.dir, v);
    for (size_t i = 0; i < adj.size; ++i) {
      uint64_t e = adj.edges[i];
      if (!bitmap_.empty() && !bitmap_[e]) continue;
      in_sel.push_back(r);
      edge_sel.push_back(e);
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(in_sel.size()));

  *out = in.Gather(in_sel);
  if (op_.emit_edge_rowid) {
    Column col(LogicalType::kInt64);
    col.Reserve(edge_sel.size());
    for (uint64_t e : edge_sel) col.AppendInt(static_cast<int64_t>(e));
    out->AddOwned(std::move(col));
  }
  for (int raw : raw_indexes_) {
    out->AddOwned(etable_->column(raw).Gather(edge_sel));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ExpandEdgeOp
// ---------------------------------------------------------------------------

Status ExpandEdgeOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("EXPAND_EDGE requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(from_col_, input.GetColumnIndex(op_.from_var));
  RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op_.edge_label));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(etable, op_.edge_filter, ctx));
  output_schema_ = input;
  RELGO_RETURN_NOT_OK(
      output_schema_.AddColumn({op_.edge_var, LogicalType::kInt64}));
  return Status::OK();
}

Status ExpandEdgeOp::Process(const Batch& in, Batch* out,
                             ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  std::vector<int64_t> edge_vals;
  const Column& from = in.column(from_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    auto v = static_cast<uint64_t>(from.int_at(r));
    graph::AdjacencyList adj =
        ctx->index().Neighbors(op_.edge_label, op_.dir, v);
    for (size_t i = 0; i < adj.size; ++i) {
      uint64_t e = adj.edges[i];
      if (!bitmap_.empty() && !bitmap_[e]) continue;
      sel.push_back(r);
      edge_vals.push_back(static_cast<int64_t>(e));
    }
  }
  return EmitExpanded(in, sel, {std::move(edge_vals)}, out, ctx);
}

// ---------------------------------------------------------------------------
// GetVertexOp
// ---------------------------------------------------------------------------

Status GetVertexOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("GET_VERTEX requires the graph index");
  }
  RELGO_ASSIGN_OR_RETURN(edge_col_, input.GetColumnIndex(op_.edge_var));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op_.edge_label);
  int vlabel = op_.dir == graph::Direction::kOut
                   ? ctx->mapping().FindVertexLabel(em.dst_label)
                   : ctx->mapping().FindVertexLabel(em.src_label);
  RELGO_ASSIGN_OR_RETURN(auto vtable, ctx->VertexTable(vlabel));
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(vtable, op_.vertex_filter, ctx));
  output_schema_ = input;
  RELGO_RETURN_NOT_OK(
      output_schema_.AddColumn({op_.to_var, LogicalType::kInt64}));
  return Status::OK();
}

Status GetVertexOp::Process(const Batch& in, Batch* out,
                            ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  std::vector<int64_t> vertex_vals;
  const Column& edge = in.column(edge_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    auto e = static_cast<uint64_t>(edge.int_at(r));
    uint64_t v = op_.dir == graph::Direction::kOut
                     ? ctx->index().EdgeTarget(op_.edge_label, e)
                     : ctx->index().EdgeSource(op_.edge_label, e);
    if (!bitmap_.empty() && !bitmap_[v]) continue;
    sel.push_back(r);
    vertex_vals.push_back(static_cast<int64_t>(v));
  }
  return EmitExpanded(in, sel, {std::move(vertex_vals)}, out, ctx);
}

// ---------------------------------------------------------------------------
// ExpandOp
// ---------------------------------------------------------------------------

Status ExpandOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(from_col_, input.GetColumnIndex(op_.from_var));
  const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op_.edge_label);
  int to_label = op_.dir == graph::Direction::kOut
                     ? ctx->mapping().FindVertexLabel(em.dst_label)
                     : ctx->mapping().FindVertexLabel(em.src_label);
  RELGO_ASSIGN_OR_RETURN(auto to_table, ctx->VertexTable(to_label));
  RELGO_ASSIGN_OR_RETURN(
      bitmap_, FilterBitmap(to_table, op_.vertex_filter, ctx));

  use_index_ = op_.use_index && ctx->has_index();
  if (!use_index_) {
    // Index-free reduction (RelGoHash): one FK hash table over the edge
    // relation built here, probed per streamed binding row (the reference
    // interpreter builds on the same side, so rows emit in the same order);
    // Process() stays read-only.
    RELGO_ASSIGN_OR_RETURN(etable_, ctx->EdgeTable(op_.edge_label));
    int from_label = op_.dir == graph::Direction::kOut
                         ? ctx->mapping().FindVertexLabel(em.src_label)
                         : ctx->mapping().FindVertexLabel(em.dst_label);
    RELGO_ASSIGN_OR_RETURN(from_table_, ctx->VertexTable(from_label));
    const graph::VertexMapping& from_vm =
        ctx->mapping().vertex_mapping(from_label);
    const graph::VertexMapping& to_vm =
        ctx->mapping().vertex_mapping(to_label);
    const std::string& from_fk = op_.dir == graph::Direction::kOut
                                     ? em.src_key_column
                                     : em.dst_key_column;
    const std::string& to_fk = op_.dir == graph::Direction::kOut
                                   ? em.dst_key_column
                                   : em.src_key_column;
    const Column* from_fk_col = etable_->FindColumn(from_fk);
    to_fk_col_ = etable_->FindColumn(to_fk);
    from_key_col_ = from_table_->FindColumn(from_vm.key_column);
    if (from_fk_col == nullptr || to_fk_col_ == nullptr ||
        from_key_col_ == nullptr) {
      return Status::Internal("bad RGMapping columns in EXPAND(hash)");
    }
    RELGO_ASSIGN_OR_RETURN(to_key_index_,
                           to_table->GetKeyIndex(to_vm.key_column));
    to_table_ = to_table;
    fk_to_edges_.clear();
    fk_to_edges_.reserve(etable_->num_rows() * 2);
    for (uint64_t e = 0; e < etable_->num_rows(); ++e) {
      fk_to_edges_[from_fk_col->int_at(e)].push_back(e);
    }
  }

  output_schema_ = input;
  RELGO_RETURN_NOT_OK(
      output_schema_.AddColumn({op_.to_var, LogicalType::kInt64}));
  if (!op_.edge_var.empty()) {
    RELGO_RETURN_NOT_OK(
        output_schema_.AddColumn({op_.edge_var, LogicalType::kInt64}));
  }
  return Status::OK();
}

Status ExpandOp::Process(const Batch& in, Batch* out,
                         ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  std::vector<int64_t> to_vals, edge_vals;
  bool want_edge = !op_.edge_var.empty();
  const Column& from = in.column(from_col_);

  if (use_index_) {
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      auto v = static_cast<uint64_t>(from.int_at(r));
      graph::AdjacencyList adj =
          ctx->index().Neighbors(op_.edge_label, op_.dir, v);
      for (size_t i = 0; i < adj.size; ++i) {
        uint64_t nbr = adj.neighbors[i];
        if (!bitmap_.empty() && !bitmap_[nbr]) continue;
        sel.push_back(r);
        to_vals.push_back(static_cast<int64_t>(nbr));
        if (want_edge) edge_vals.push_back(static_cast<int64_t>(adj.edges[i]));
      }
    }
  } else {
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      auto v = static_cast<uint64_t>(from.int_at(r));
      auto it = fk_to_edges_.find(from_key_col_->int_at(v));
      if (it == fk_to_edges_.end()) continue;
      for (uint64_t e : it->second) {
        auto to_it = to_key_index_->find(to_fk_col_->int_at(e));
        if (to_it == to_key_index_->end()) continue;
        uint64_t nbr = to_it->second;
        if (!bitmap_.empty() && !bitmap_[nbr]) continue;
        sel.push_back(r);
        to_vals.push_back(static_cast<int64_t>(nbr));
        if (want_edge) edge_vals.push_back(static_cast<int64_t>(e));
      }
    }
  }

  std::vector<std::vector<int64_t>> new_cols;
  new_cols.push_back(std::move(to_vals));
  if (want_edge) new_cols.push_back(std::move(edge_vals));
  return EmitExpanded(in, sel, new_cols, out, ctx);
}

// ---------------------------------------------------------------------------
// ExpandIntersectOp
// ---------------------------------------------------------------------------

Status ExpandIntersectOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  if (!ctx->has_index()) {
    return Status::InvalidArgument("EXPAND_INTERSECT requires the graph index");
  }
  size_t k = op_.from_vars.size();
  from_cols_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    RELGO_ASSIGN_OR_RETURN(from_cols_[i],
                           input.GetColumnIndex(op_.from_vars[i]));
  }
  const graph::EdgeMapping& em0 =
      ctx->mapping().edge_mapping(op_.edge_labels[0]);
  int to_label = op_.dirs[0] == graph::Direction::kOut
                     ? ctx->mapping().FindVertexLabel(em0.dst_label)
                     : ctx->mapping().FindVertexLabel(em0.src_label);
  RELGO_ASSIGN_OR_RETURN(auto to_table, ctx->VertexTable(to_label));
  RELGO_ASSIGN_OR_RETURN(
      bitmap_, FilterBitmap(to_table, op_.vertex_filter, ctx));
  want_edges_ = false;
  for (const auto& ev : op_.edge_vars) want_edges_ |= !ev.empty();

  output_schema_ = input;
  RELGO_RETURN_NOT_OK(
      output_schema_.AddColumn({op_.to_var, LogicalType::kInt64}));
  if (want_edges_) {
    for (const auto& ev : op_.edge_vars) {
      if (!ev.empty()) {
        RELGO_RETURN_NOT_OK(
            output_schema_.AddColumn({ev, LogicalType::kInt64}));
      }
    }
  }
  return Status::OK();
}

Status ExpandIntersectOp::Process(const Batch& in, Batch* out,
                                  ExecutionContext* ctx) const {
  size_t k = from_cols_.size();
  std::vector<uint64_t> sel;
  std::vector<int64_t> to_vals;
  // Only bound (non-trimmed) edge vars accumulate values; the others stay
  // empty and are skipped at emit, saving k push_backs per output row on
  // the common fully-trimmed cyclic queries.
  std::vector<std::vector<int64_t>> edge_vals(k);
  std::vector<uint8_t> keep_edge(k, 0);
  if (want_edges_) {
    for (size_t i = 0; i < k; ++i) keep_edge[i] = !op_.edge_vars[i].empty();
  }

  std::vector<graph::AdjacencyList> lists(k);
  std::vector<size_t> pos(k);
  std::vector<std::pair<size_t, size_t>> runs(k);  // [begin, end) per list
  std::vector<size_t> cursor(k);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    for (size_t i = 0; i < k; ++i) {
      auto v = static_cast<uint64_t>(in.column(from_cols_[i]).int_at(r));
      lists[i] = ctx->index().Neighbors(op_.edge_labels[i], op_.dirs[i], v);
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
      for (size_t i = 0; i < k; ++i) {
        size_t b = pos[i];
        while (pos[i] < lists[i].size &&
               lists[i].neighbors[pos[i]] == candidate) {
          ++pos[i];
        }
        runs[i] = {b, pos[i]};
      }
      bool pass = bitmap_.empty() || bitmap_[candidate] != 0;
      if (pass) {
        for (size_t i = 0; i < k; ++i) cursor[i] = runs[i].first;
        while (true) {
          sel.push_back(r);
          to_vals.push_back(static_cast<int64_t>(candidate));
          for (size_t i = 0; i < k; ++i) {
            if (!keep_edge[i]) continue;
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
  }

  std::vector<std::vector<int64_t>> new_cols;
  new_cols.push_back(std::move(to_vals));
  for (size_t i = 0; i < k; ++i) {
    if (keep_edge[i]) new_cols.push_back(std::move(edge_vals[i]));
  }
  return EmitExpanded(in, sel, new_cols, out, ctx);
}

// ---------------------------------------------------------------------------
// EdgeVerifyOp
// ---------------------------------------------------------------------------

Status EdgeVerifyOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(src_col_, input.GetColumnIndex(op_.src_var));
  RELGO_ASSIGN_OR_RETURN(dst_col_, input.GetColumnIndex(op_.dst_var));
  use_index_ = op_.use_index && ctx->has_index();
  if (!use_index_) {
    // Hash implementation on (src_key, dst_key), built once here.
    const graph::EdgeMapping& em = ctx->mapping().edge_mapping(op_.edge_label);
    int src_label = ctx->mapping().FindVertexLabel(
        op_.dir == graph::Direction::kOut ? em.src_label : em.dst_label);
    int dst_label = ctx->mapping().FindVertexLabel(
        op_.dir == graph::Direction::kOut ? em.dst_label : em.src_label);
    RELGO_ASSIGN_OR_RETURN(auto etable, ctx->EdgeTable(op_.edge_label));
    RELGO_ASSIGN_OR_RETURN(stable_, ctx->VertexTable(src_label));
    RELGO_ASSIGN_OR_RETURN(dtable_, ctx->VertexTable(dst_label));
    skey_ = stable_->FindColumn(
        ctx->mapping().vertex_mapping(src_label).key_column);
    dkey_ = dtable_->FindColumn(
        ctx->mapping().vertex_mapping(dst_label).key_column);
    const Column* sfk = etable->FindColumn(
        op_.dir == graph::Direction::kOut ? em.src_key_column
                                          : em.dst_key_column);
    const Column* dfk = etable->FindColumn(
        op_.dir == graph::Direction::kOut ? em.dst_key_column
                                          : em.src_key_column);
    if (skey_ == nullptr || dkey_ == nullptr || sfk == nullptr ||
        dfk == nullptr) {
      return Status::Internal("bad RGMapping columns in EDGE_VERIFY(hash)");
    }
    key_to_edges_.clear();
    key_to_edges_.reserve(etable->num_rows() * 2);
    for (uint64_t e = 0; e < etable->num_rows(); ++e) {
      key_to_edges_[{sfk->int_at(e), dfk->int_at(e)}].push_back(e);
    }
  }
  output_schema_ = input;
  if (!op_.edge_var.empty()) {
    RELGO_RETURN_NOT_OK(
        output_schema_.AddColumn({op_.edge_var, LogicalType::kInt64}));
  }
  return Status::OK();
}

Status EdgeVerifyOp::Process(const Batch& in, Batch* out,
                             ExecutionContext* ctx) const {
  bool want_edge = !op_.edge_var.empty();
  std::vector<uint64_t> sel;
  std::vector<int64_t> edge_vals;
  const Column& src = in.column(src_col_);
  const Column& dst = in.column(dst_col_);

  if (use_index_) {
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      auto s = static_cast<uint64_t>(src.int_at(r));
      auto d = static_cast<uint64_t>(dst.int_at(r));
      graph::AdjacencyList adj =
          ctx->index().Neighbors(op_.edge_label, op_.dir, s);
      // Sorted by neighbor: binary search the run of `d`. Bag semantics:
      // each parallel edge contributes one output row even when the edge
      // binding itself was trimmed.
      const uint64_t* begin = adj.neighbors;
      const uint64_t* end = adj.neighbors + adj.size;
      const uint64_t* lo = std::lower_bound(begin, end, d);
      for (const uint64_t* p = lo; p != end && *p == d; ++p) {
        sel.push_back(r);
        if (want_edge) {
          edge_vals.push_back(static_cast<int64_t>(adj.edges[p - begin]));
        }
      }
    }
  } else {
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      auto s = static_cast<uint64_t>(src.int_at(r));
      auto d = static_cast<uint64_t>(dst.int_at(r));
      auto it = key_to_edges_.find({skey_->int_at(s), dkey_->int_at(d)});
      if (it == key_to_edges_.end()) continue;
      for (uint64_t e : it->second) {
        sel.push_back(r);
        if (want_edge) edge_vals.push_back(static_cast<int64_t>(e));
      }
    }
  }

  std::vector<std::vector<int64_t>> new_cols;
  if (want_edge) new_cols.push_back(std::move(edge_vals));
  return EmitExpanded(in, sel, new_cols, out, ctx);
}

// ---------------------------------------------------------------------------
// VertexFilterOp
// ---------------------------------------------------------------------------

Status VertexFilterOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  RELGO_ASSIGN_OR_RETURN(var_col_, input.GetColumnIndex(op_.var));
  storage::TablePtr base;
  if (op_.is_edge) {
    RELGO_ASSIGN_OR_RETURN(base, ctx->EdgeTable(op_.label));
  } else {
    RELGO_ASSIGN_OR_RETURN(base, ctx->VertexTable(op_.label));
  }
  RELGO_ASSIGN_OR_RETURN(bitmap_, FilterBitmap(base, op_.predicate, ctx));
  output_schema_ = input;
  return Status::OK();
}

Status VertexFilterOp::Process(const Batch& in, Batch* out,
                               ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  const Column& var = in.column(var_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    auto rid = static_cast<uint64_t>(var.int_at(r));
    if (bitmap_.empty() || bitmap_[rid]) sel.push_back(r);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  *out = in.Gather(sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// NotEqualOp
// ---------------------------------------------------------------------------

Status NotEqualOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  RELGO_ASSIGN_OR_RETURN(a_col_, input.GetColumnIndex(op_.var_a));
  RELGO_ASSIGN_OR_RETURN(b_col_, input.GetColumnIndex(op_.var_b));
  output_schema_ = input;
  return Status::OK();
}

Status NotEqualOp::Process(const Batch& in, Batch* out,
                           ExecutionContext* ctx) const {
  std::vector<uint64_t> sel;
  const Column& a = in.column(a_col_);
  const Column& b = in.column(b_col_);
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    if (a.int_at(r) != b.int_at(r)) sel.push_back(r);
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(sel.size()));
  *out = in.Gather(sel);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ScanGraphTableOp
// ---------------------------------------------------------------------------

Status ScanGraphTableOp::Prepare(const Schema& input, ExecutionContext* ctx) {
  auto resolve = [&](const std::string& var, bool* is_edge,
                     int* label) -> Status {
    for (const auto& [v, l] : op_.vertex_var_labels) {
      if (v == var) {
        *is_edge = false;
        *label = l;
        return Status::OK();
      }
    }
    for (const auto& [v, l] : op_.edge_var_labels) {
      if (v == var) {
        *is_edge = true;
        *label = l;
        return Status::OK();
      }
    }
    return Status::NotFound("SCAN_GRAPH_TABLE: unknown var '" + var + "'");
  };

  output_schema_ = Schema();
  sources_.clear();
  for (const auto& rid_var : op_.rowid_passthrough) {
    RELGO_ASSIGN_OR_RETURN(size_t bcol, input.GetColumnIndex(rid_var));
    RELGO_RETURN_NOT_OK(
        output_schema_.AddColumn({rid_var + ".$rid", LogicalType::kInt64}));
    sources_.push_back({nullptr, -1, bcol});
  }
  for (const auto& proj : op_.projections) {
    bool is_edge = false;
    int label = -1;
    RELGO_RETURN_NOT_OK(resolve(proj.var, &is_edge, &label));
    storage::TablePtr base;
    if (is_edge) {
      RELGO_ASSIGN_OR_RETURN(base, ctx->EdgeTable(label));
    } else {
      RELGO_ASSIGN_OR_RETURN(base, ctx->VertexTable(label));
    }
    RELGO_ASSIGN_OR_RETURN(size_t bcol, input.GetColumnIndex(proj.var));
    if (proj.column == "$rid") {
      RELGO_RETURN_NOT_OK(
          output_schema_.AddColumn({proj.output_name, LogicalType::kInt64}));
      sources_.push_back({nullptr, -1, bcol});
    } else {
      RELGO_ASSIGN_OR_RETURN(size_t raw,
                             base->schema().GetColumnIndex(proj.column));
      RELGO_RETURN_NOT_OK(output_schema_.AddColumn(
          {proj.output_name, base->schema().column(raw).type}));
      sources_.push_back({base, static_cast<int>(raw), bcol});
    }
  }
  return Status::OK();
}

Status ScanGraphTableOp::Process(const Batch& in, Batch* out,
                                 ExecutionContext* ctx) const {
  for (const Source& src : sources_) {
    const Column& bind = in.column(src.binding_col);
    if (src.raw_col < 0) {
      // The row id itself: the binding column already holds it.
      out->AddColumn(in.column_ref(src.binding_col));
    } else {
      const Column& raw = src.base->column(static_cast<size_t>(src.raw_col));
      Column col(raw.type());
      col.Reserve(in.num_rows());
      for (uint64_t r = 0; r < in.num_rows(); ++r) {
        col.AppendFrom(raw, static_cast<uint64_t>(bind.int_at(r)));
      }
      out->AddOwned(std::move(col));
    }
  }
  out->SetNumRows(in.num_rows());
  return ctx->ChargeRows(in.num_rows());
}

// ---------------------------------------------------------------------------
// MaterializeSink / HashBuildSink
// ---------------------------------------------------------------------------

namespace {

/// Per-worker (morsel, batch) collection, the shared state of every
/// batch-collecting sink (MaterializeSink, HashBuildSink, and TopKSink's
/// sort/limit modes — which derive from it).
struct BatchListState : SinkState {
  std::vector<std::pair<uint64_t, Batch>> batches;  // (morsel, batch)
};

/// Per-worker (morsel, batch) lists sorted into global morsel order — the
/// sequential (num_threads = 1) order, which in turn equals the
/// materializing executor's, so downstream order-sensitive consumers break
/// ties identically.
std::vector<const std::pair<uint64_t, Batch>*> OrderedBatches(
    const std::vector<std::unique_ptr<SinkState>>& states) {
  std::vector<const std::pair<uint64_t, Batch>*> ordered;
  for (const auto& state : states) {
    for (const auto& entry :
         static_cast<BatchListState*>(state.get())->batches) {
      ordered.push_back(&entry);
    }
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return ordered;
}

/// Concatenates morsel-ordered batches into one table.
TablePtr ConcatBatches(
    const std::vector<const std::pair<uint64_t, Batch>*>& ordered,
    const std::string& name, const Schema& schema) {
  auto out = std::make_shared<Table>(name, schema);
  for (const auto* entry : ordered) {
    const Batch& b = entry->second;
    for (size_t c = 0; c < b.num_columns(); ++c) {
      out->column(c).AppendRange(b.column(c), 0, b.num_rows());
    }
  }
  out->FinishBulkAppend();
  return out;
}

}  // namespace

Status MaterializeSink::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  schema_ = input;
  return Status::OK();
}

std::unique_ptr<SinkState> MaterializeSink::MakeState() const {
  return std::make_unique<BatchListState>();
}

Status MaterializeSink::Consume(SinkState* state, const Batch& in,
                                uint64_t morsel, ExecutionContext* ctx) const {
  (void)ctx;
  static_cast<BatchListState*>(state)->batches.emplace_back(morsel, in);
  return Status::OK();
}

Result<TablePtr> MaterializeSink::Finish(
    std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
    ExecutionContext* ctx) {
  (void)scheduler;
  (void)ctx;
  return ConcatBatches(OrderedBatches(states), name_, schema_);
}

Status HashBuildSink::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  schema_ = input;
  return Status::OK();
}

std::unique_ptr<SinkState> HashBuildSink::MakeState() const {
  return std::make_unique<BatchListState>();
}

Status HashBuildSink::Consume(SinkState* state, const Batch& in,
                              uint64_t morsel, ExecutionContext* ctx) const {
  (void)ctx;
  static_cast<BatchListState*>(state)->batches.emplace_back(morsel, in);
  return Status::OK();
}

Result<TablePtr> HashBuildSink::Finish(
    std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
    ExecutionContext* ctx) {
  TablePtr table = ConcatBatches(OrderedBatches(states), "build", schema_);

  Timer timer;
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kHashBuild));
  ht_ = std::make_shared<JoinHashTable>();
  RELGO_RETURN_NOT_OK(ht_->BeginBuild(*table, keys_));

  // Phase 1: morsel-parallel scatter into per-worker partition runs (no
  // ordering assumed; FinalizePartition sorts each partition by row id).
  uint64_t total_rows = table->num_rows();
  uint64_t morsels = (total_rows + kBatchRows - 1) / kBatchRows;
  int max_workers = ResolveNumThreads(ctx->options());
  std::vector<JoinHashTable::BuildPartial> partials(
      static_cast<size_t>(max_workers));
  JoinHashTable* ht = ht_.get();
  RELGO_RETURN_NOT_OK(scheduler->Run(
      morsels, max_workers, [&](int worker, uint64_t morsel) -> Status {
        RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
        uint64_t begin = morsel * kBatchRows;
        uint64_t count = std::min(kBatchRows, total_rows - begin);
        ht->PartitionRows(begin, count, &partials[worker]);
        return Status::OK();
      }));

  // Phase 2: partition-parallel finalize into the preallocated directory.
  RELGO_RETURN_NOT_OK(fault::MaybeInject(fault::Site::kHashFinalize));
  RELGO_RETURN_NOT_OK(scheduler->Run(
      JoinHashTable::kNumPartitions, max_workers,
      [&](int, uint64_t p) -> Status {
        ht->FinalizePartition(static_cast<size_t>(p), &partials);
        return Status::OK();
      }));

  double build_ms = timer.ElapsedMillis();
  if (QueryProfile* qp = ctx->profile()) {
    qp->AddBuildMs(build_ms);
    if (join_node_ != nullptr) {
      // The join's breaker-side cost: rows_in counts the hashed build rows
      // (the probe pipeline adds its own rows_in later); rows_out stays
      // zero so the join's actual output cardinality remains engine-
      // invariant.
      OperatorProfile prof;
      prof.rows_in = total_rows;
      prof.invocations = 1;
      prof.wall_ms = build_ms;
      qp->Accumulate(join_node_, prof);
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// AggregateSink
// ---------------------------------------------------------------------------

namespace {

/// Group-by key wrapper with Value-based equality (mirrors the seed
/// executor's aggregate).
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

struct AggState {
  int64_t count = 0;
  Value min, max;
  double sum = 0;
  int64_t isum = 0;

  void MergeFrom(const AggState& other) {
    count += other.count;
    if (!other.min.is_null() && (min.is_null() || other.min < min)) {
      min = other.min;
    }
    if (!other.max.is_null() && (max.is_null() || max < other.max)) {
      max = other.max;
    }
    sum += other.sum;
    isum += other.isum;
  }
};

/// One group's partial aggregate plus where it was first seen. The
/// (morsel, row) coordinate orders merged groups identically to a
/// sequential first-seen scan, making group output order independent of
/// thread count (and equal to the materializing executor's).
struct PartialGroup {
  std::vector<AggState> states;
  uint64_t first_morsel = 0;
  uint64_t first_row = 0;
};

struct AggregatePartial : SinkState {
  std::unordered_map<GroupKey, PartialGroup, GroupKeyHash> groups;
  /// Typed-path twin of `groups` (exec/vector/typed_keys.h): keyed on
  /// byte-encoded group keys read from payload spans. A run populates
  /// exactly one of the two maps (all workers share the sink's encoder).
  std::unordered_map<vector::EncodedGroupKey, PartialGroup,
                     vector::EncodedGroupKeyHash>
      egroups;
};

}  // namespace

Status AggregateSink::Prepare(const Schema& input, ExecutionContext* ctx) {
  (void)ctx;
  group_cols_.clear();
  for (const auto& g : op_.group_by) {
    RELGO_ASSIGN_OR_RETURN(size_t idx, input.GetColumnIndex(g));
    group_cols_.push_back(idx);
  }
  agg_cols_.clear();
  for (const auto& a : op_.aggregates) {
    if (a.input_column.empty()) {
      agg_cols_.push_back(-1);
    } else {
      RELGO_ASSIGN_OR_RETURN(size_t idx, input.GetColumnIndex(a.input_column));
      agg_cols_.push_back(static_cast<int>(idx));
    }
  }
  input_schema_ = input;
  std::vector<LogicalType> key_types;
  for (size_t c : group_cols_) key_types.push_back(input.column(c).type);
  encoder_ = vector::KeyEncoder::Make(key_types);
  return Status::OK();
}

std::unique_ptr<SinkState> AggregateSink::MakeState() const {
  return std::make_unique<AggregatePartial>();
}

Status AggregateSink::Consume(SinkState* state, const Batch& in,
                              uint64_t morsel, ExecutionContext* ctx) const {
  (void)ctx;
  auto* partial = static_cast<AggregatePartial*>(state);
  if (encoder_ != nullptr) {
    // Typed path: encoded keys + span-read aggregate inputs; a Value is
    // only boxed when a running MIN/MAX improves.
    std::vector<const Column*> key_cols;
    key_cols.reserve(group_cols_.size());
    for (size_t c : group_cols_) key_cols.push_back(&in.column(c));
    std::vector<vector::AggColumnView> views(op_.aggregates.size());
    for (size_t a = 0; a < op_.aggregates.size(); ++a) {
      if (agg_cols_[a] >= 0) {
        views[a] = vector::AggColumnView(
            &in.column(static_cast<size_t>(agg_cols_[a])));
      }
    }
    vector::EncodedGroupKey key;
    for (uint64_t r = 0; r < in.num_rows(); ++r) {
      encoder_->Encode(key_cols.data(), r, &key);
      auto it = partial->egroups.find(key);
      if (it == partial->egroups.end()) {
        PartialGroup group;
        group.states.resize(op_.aggregates.size());
        group.first_morsel = morsel;
        group.first_row = r;
        it = partial->egroups.emplace(key, std::move(group)).first;
      }
      for (size_t a = 0; a < op_.aggregates.size(); ++a) {
        AggState& st = it->second.states[a];
        st.count += 1;
        if (agg_cols_[a] >= 0) views[a].Update(r, &st);
      }
    }
    return Status::OK();
  }
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    GroupKey key;
    key.values.reserve(group_cols_.size());
    for (size_t c : group_cols_) key.values.push_back(in.column(c).GetValue(r));
    auto it = partial->groups.find(key);
    if (it == partial->groups.end()) {
      PartialGroup group;
      group.states.resize(op_.aggregates.size());
      group.first_morsel = morsel;
      group.first_row = r;
      it = partial->groups.emplace(std::move(key), std::move(group)).first;
    }
    for (size_t a = 0; a < op_.aggregates.size(); ++a) {
      AggState& st = it->second.states[a];
      st.count += 1;
      if (agg_cols_[a] >= 0) {
        Value v = in.column(static_cast<size_t>(agg_cols_[a])).GetValue(r);
        if (!v.is_null()) {
          if (st.min.is_null() || v < st.min) st.min = v;
          if (st.max.is_null() || st.max < v) st.max = v;
          if (v.type() == LogicalType::kInt64) st.isum += v.int_value();
          if (v.type() == LogicalType::kDouble) st.sum += v.double_value();
        }
      }
    }
  }
  return Status::OK();
}

Result<TablePtr> AggregateSink::Finish(
    std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
    ExecutionContext* ctx) {
  (void)scheduler;
  // Merge thread-local partials; a group's position is its globally
  // earliest first-seen (morsel, row), so the output order matches the
  // sequential scan regardless of which worker saw which morsel. The
  // boxed and typed (encoder_) paths share the merge/order logic — a run
  // only ever populates one of the two partial maps.
  auto merge_one = [](PartialGroup* dst, PartialGroup* src) {
    for (size_t a = 0; a < dst->states.size(); ++a) {
      dst->states[a].MergeFrom(src->states[a]);
    }
    if (std::make_pair(src->first_morsel, src->first_row) <
        std::make_pair(dst->first_morsel, dst->first_row)) {
      dst->first_morsel = src->first_morsel;
      dst->first_row = src->first_row;
    }
  };
  auto merge_map = [&](auto* dst_map, auto* src_map) {
    for (auto& [key, src] : *src_map) {
      auto it = dst_map->find(key);
      if (it == dst_map->end()) {
        dst_map->emplace(key, std::move(src));
      } else {
        merge_one(&it->second, &src);
      }
    }
  };
  auto sorted_entries = [](const auto& map) {
    std::vector<const typename std::decay_t<decltype(map)>::value_type*>
        order;
    order.reserve(map.size());
    for (const auto& entry : map) order.push_back(&entry);
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      return std::make_pair(a->second.first_morsel, a->second.first_row) <
             std::make_pair(b->second.first_morsel, b->second.first_row);
    });
    return order;
  };
  std::unordered_map<GroupKey, PartialGroup, GroupKeyHash> groups;
  std::unordered_map<vector::EncodedGroupKey, PartialGroup,
                     vector::EncodedGroupKeyHash>
      egroups;
  for (const auto& state : states) {
    auto* partial = static_cast<AggregatePartial*>(state.get());
    merge_map(&groups, &partial->groups);
    merge_map(&egroups, &partial->egroups);
  }
  auto order = sorted_entries(groups);
  auto eorder = sorted_entries(egroups);

  Schema schema;
  for (size_t g = 0; g < op_.group_by.size(); ++g) {
    RELGO_RETURN_NOT_OK(schema.AddColumn(
        {op_.group_by[g], input_schema_.column(group_cols_[g]).type}));
  }
  for (size_t a = 0; a < op_.aggregates.size(); ++a) {
    LogicalType type = LogicalType::kInt64;
    if (op_.aggregates[a].func != plan::AggFunc::kCount && agg_cols_[a] >= 0) {
      type = input_schema_.column(static_cast<size_t>(agg_cols_[a])).type;
    }
    RELGO_RETURN_NOT_OK(
        schema.AddColumn({op_.aggregates[a].output_name, type}));
  }

  auto out = std::make_shared<Table>("aggregate", schema);
  // SQL semantics: a global aggregate (no GROUP BY) over empty input still
  // yields one row (COUNT = 0, MIN/MAX/SUM = NULL).
  if (op_.group_by.empty() && order.empty() && eorder.empty()) {
    std::vector<Value> row;
    for (const auto& a : op_.aggregates) {
      row.push_back(a.func == plan::AggFunc::kCount ? Value::Int(0)
                                                    : Value::Null());
    }
    RELGO_RETURN_NOT_OK(out->AppendRow(row));
    RELGO_RETURN_NOT_OK(ctx->ChargeRows(1));
    return TablePtr(out);
  }
  auto emit = [&](std::vector<Value> row,
                  const std::vector<AggState>& agg_states) -> Status {
    for (size_t a = 0; a < op_.aggregates.size(); ++a) {
      const AggState& st = agg_states[a];
      switch (op_.aggregates[a].func) {
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
          LogicalType type = schema.column(op_.group_by.size() + a).type;
          row.push_back(type == LogicalType::kDouble ? Value::Double(st.sum)
                                                     : Value::Int(st.isum));
          break;
        }
      }
    }
    return out->AppendRow(row);
  };
  if (encoder_ != nullptr) {
    std::vector<Value> key_vals;
    for (const auto* entry : eorder) {
      encoder_->Decode(entry->first, &key_vals);
      RELGO_RETURN_NOT_OK(emit(key_vals, entry->second.states));
    }
  } else {
    for (const auto* entry : order) {
      RELGO_RETURN_NOT_OK(emit(entry->first.values, entry->second.states));
    }
  }
  RELGO_RETURN_NOT_OK(ctx->ChargeRows(out->num_rows()));
  return TablePtr(out);
}

// ---------------------------------------------------------------------------
// TopKSink
// ---------------------------------------------------------------------------

namespace {

/// One kept candidate row in heap mode: the full row as Values plus its
/// global (morsel, row) sequence coordinate for stable tie-breaking.
struct HeapRow {
  std::vector<Value> vals;
  uint64_t morsel = 0;
  uint64_t row = 0;
};

struct TopKState : BatchListState {  // batches used by sort / limit modes
  std::vector<HeapRow> heap;         // heap mode
  uint64_t rows_seen = 0;
};

}  // namespace

Status TopKSink::Prepare(const Schema& input, ExecutionContext* ctx) {
  schema_ = input;
  key_cols_.clear();
  if (order_ != nullptr) {
    for (const auto& k : order_->keys) {
      RELGO_ASSIGN_OR_RETURN(size_t idx, input.GetColumnIndex(k.column));
      key_cols_.push_back(idx);
    }
  }
  // Early-exit is exact but consumes fewer upstream rows than the oracle;
  // profiled runs keep it off so per-node actual counts stay
  // engine-invariant (profile_test's parity grids).
  early_exit_ = order_ == nullptr && limit_ >= 0 && ctx->profile() == nullptr;
  frontier_next_ = 0;
  pending_.clear();
  prefix_rows_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

void TopKSink::MorselFinished(uint64_t morsel, uint64_t rows) const {
  if (!early_exit_) return;
  std::lock_guard<std::mutex> lock(exit_mu_);
  if (morsel != frontier_next_) {
    pending_.emplace(morsel, rows);
    return;
  }
  uint64_t prefix = prefix_rows_.load(std::memory_order_relaxed) + rows;
  ++frontier_next_;
  for (auto it = pending_.begin();
       it != pending_.end() && it->first == frontier_next_;
       it = pending_.erase(it)) {
    prefix += it->second;
    ++frontier_next_;
  }
  prefix_rows_.store(prefix, std::memory_order_relaxed);
}

std::unique_ptr<SinkState> TopKSink::MakeState() const {
  return std::make_unique<TopKState>();
}

Status TopKSink::Consume(SinkState* state, const Batch& in, uint64_t morsel,
                         ExecutionContext* ctx) const {
  (void)ctx;
  auto* s = static_cast<TopKState*>(state);
  s->rows_seen += in.num_rows();

  if (!HeapMode()) {
    if (limit_ != 0) s->batches.emplace_back(morsel, in);
    // The early-exit frontier advances in MorselFinished, which the
    // pipeline calls after this batch is safely stored.
    return Status::OK();
  }

  if (limit_ == 0) return Status::OK();
  auto k = static_cast<size_t>(limit_);
  std::vector<HeapRow>& heap = s->heap;
  // Max-heap under the sort order: the worst kept row sits on top and
  // fences off non-qualifying candidates without materializing them.
  auto heap_cmp = [&](const HeapRow& a, const HeapRow& b) {
    int c = CompareSortKeyValues(
        order_->keys, [&](size_t i) { return a.vals[key_cols_[i]]; },
        [&](size_t i) { return b.vals[key_cols_[i]]; });
    if (c != 0) return c < 0;
    return std::make_pair(a.morsel, a.row) < std::make_pair(b.morsel, b.row);
  };
  // The fence test reads the incoming batch through typed spans;
  // retained heap rows stay boxed (sign-identical to the boxed
  // comparison, see vector::TypedColumnValueCompare).
  auto fence_cmp = [&](uint64_t r, const HeapRow& worst) {
    for (size_t i = 0; i < order_->keys.size(); ++i) {
      int c = vector::TypedColumnValueCompare(in.column(key_cols_[i]), r,
                                              worst.vals[key_cols_[i]]);
      if (c != 0) return order_->keys[i].ascending ? c : -c;
    }
    return 0;
  };
  for (uint64_t r = 0; r < in.num_rows(); ++r) {
    if (heap.size() == k) {
      const HeapRow& worst = heap.front();
      int c = fence_cmp(r, worst);
      bool before_worst =
          c != 0 ? c < 0
                 : std::make_pair(morsel, r) <
                       std::make_pair(worst.morsel, worst.row);
      if (!before_worst) continue;
      std::pop_heap(heap.begin(), heap.end(), heap_cmp);
      heap.pop_back();
    }
    HeapRow candidate;
    candidate.vals.reserve(in.num_columns());
    for (size_t c = 0; c < in.num_columns(); ++c) {
      candidate.vals.push_back(in.column(c).GetValue(r));
    }
    candidate.morsel = morsel;
    candidate.row = r;
    heap.push_back(std::move(candidate));
    std::push_heap(heap.begin(), heap.end(), heap_cmp);
  }
  return Status::OK();
}

Result<TablePtr> TopKSink::Finish(
    std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
    ExecutionContext* ctx) {
  uint64_t total = 0;
  for (const auto& state : states) {
    total += static_cast<TopKState*>(state.get())->rows_seen;
  }
  Timer timer;
  auto out = std::make_shared<Table>("result", schema_);

  if (HeapMode()) {
    // Merge the per-worker top-k candidates (<= workers * k rows) and sort
    // them once; the (morsel, row) tie-break reproduces the oracle's
    // stable sort over the sequential row order.
    std::vector<HeapRow> candidates;
    for (auto& state : states) {
      auto& heap = static_cast<TopKState*>(state.get())->heap;
      std::move(heap.begin(), heap.end(), std::back_inserter(candidates));
      heap.clear();
    }
    std::sort(candidates.begin(), candidates.end(),
              [&](const HeapRow& a, const HeapRow& b) {
                int c = CompareSortKeyValues(
                    order_->keys,
                    [&](size_t i) { return a.vals[key_cols_[i]]; },
                    [&](size_t i) { return b.vals[key_cols_[i]]; });
                if (c != 0) return c < 0;
                return std::make_pair(a.morsel, a.row) <
                       std::make_pair(b.morsel, b.row);
              });
    if (candidates.size() > static_cast<size_t>(limit_)) {
      candidates.resize(static_cast<size_t>(limit_));
    }
    for (const HeapRow& row : candidates) {
      RELGO_RETURN_NOT_OK(out->AppendRow(row.vals));
    }
  } else if (order_ != nullptr) {
    // Parallel merge sort over the morsel-ordered row space: chunk-sort on
    // the scheduler, then k-way merge the sorted runs.
    auto ordered = OrderedBatches(states);
    struct RowRef {
      const Batch* batch;
      uint64_t row;
    };
    std::vector<RowRef> refs;
    refs.reserve(total);
    for (const auto* entry : ordered) {
      for (uint64_t r = 0; r < entry->second.num_rows(); ++r) {
        refs.push_back(RowRef{&entry->second, r});
      }
    }
    uint64_t n = refs.size();
    // Position in `refs` IS the global sequence number, so index order is
    // the stable-sort tie-break. The O(n log n) comparisons read payload
    // spans (string keys sharing a sorted dictionary compare int32 codes)
    // instead of boxing two Values each.
    auto before = [&](uint64_t i, uint64_t j) {
      for (size_t k = 0; k < order_->keys.size(); ++k) {
        int c = vector::TypedColumnCompare(
            refs[i].batch->column(key_cols_[k]), refs[i].row,
            refs[j].batch->column(key_cols_[k]), refs[j].row);
        if (c != 0) return order_->keys[k].ascending ? c < 0 : c > 0;
      }
      return i < j;
    };
    std::vector<uint64_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    int max_workers = ResolveNumThreads(ctx->options());
    uint64_t chunks = static_cast<uint64_t>(max_workers) * 2;
    if (n < 4096 || chunks < 2) chunks = 1;
    std::vector<std::pair<uint64_t, uint64_t>> runs;  // [begin, end)
    for (uint64_t c = 0; c < chunks; ++c) {
      uint64_t lo = n * c / chunks, hi = n * (c + 1) / chunks;
      if (lo < hi) runs.emplace_back(lo, hi);
    }
    RELGO_RETURN_NOT_OK(scheduler->Run(
        runs.size(), max_workers, [&](int, uint64_t run) -> Status {
          RELGO_RETURN_NOT_OK(ctx->CheckInterrupt());
          std::sort(order.begin() + runs[run].first,
                    order.begin() + runs[run].second, before);
          return Status::OK();
        }));
    std::vector<uint64_t> merged;
    merged.reserve(n);
    if (runs.size() <= 1) {
      merged = std::move(order);
    } else {
      std::vector<uint64_t> cursor(runs.size());
      auto run_after = [&](size_t a, size_t b) {  // min-heap on run heads
        return before(order[runs[b].first + cursor[b]],
                      order[runs[a].first + cursor[a]]);
      };
      std::priority_queue<size_t, std::vector<size_t>, decltype(run_after)>
          heads(run_after);
      for (size_t r = 0; r < runs.size(); ++r) heads.push(r);
      while (!heads.empty()) {
        size_t r = heads.top();
        heads.pop();
        merged.push_back(order[runs[r].first + cursor[r]]);
        if (runs[r].first + ++cursor[r] < runs[r].second) heads.push(r);
      }
    }
    uint64_t emit = limit_ >= 0 && static_cast<uint64_t>(limit_) < n
                        ? static_cast<uint64_t>(limit_)
                        : n;
    for (size_t c = 0; c < out->num_columns(); ++c) {
      Column& col = out->column(c);
      col.Reserve(emit);
      for (uint64_t i = 0; i < emit; ++i) {
        col.AppendFrom(refs[merged[i]].batch->column(c), refs[merged[i]].row);
      }
    }
    out->FinishBulkAppend();
  } else {
    // Plain LIMIT: truncate the morsel-ordered concatenation at k rows.
    auto ordered = OrderedBatches(states);
    uint64_t remaining = limit_ >= 0 ? static_cast<uint64_t>(limit_) : total;
    for (const auto* entry : ordered) {
      if (remaining == 0) break;
      const Batch& b = entry->second;
      uint64_t take = std::min(remaining, b.num_rows());
      for (size_t c = 0; c < b.num_columns(); ++c) {
        out->column(c).AppendRange(b.column(c), 0, take);
      }
      remaining -= take;
    }
    out->FinishBulkAppend();
  }
  double finish_ms = timer.ElapsedMillis();

  // Budget parity with the reference interpreter: its ORDER BY charges the
  // full row count, its LIMIT charges k only when it truncates.
  if (order_ != nullptr) RELGO_RETURN_NOT_OK(ctx->ChargeRows(total));
  if (limit_ >= 0 && static_cast<uint64_t>(limit_) < total) {
    RELGO_RETURN_NOT_OK(ctx->ChargeRows(static_cast<uint64_t>(limit_)));
  }

  if (QueryProfile* qp = ctx->profile()) {
    if (order_ != nullptr) qp->AddSortMs(finish_ms);
    if (order_ != nullptr && limit_node_ != nullptr) {
      // The fused ORDER BY's entry (the generic sink attribution goes to
      // the LIMIT node): sorting preserves cardinality, like the oracle.
      OperatorProfile prof;
      prof.rows_in = total;
      prof.rows_out = total;
      prof.invocations = 1;
      prof.wall_ms = finish_ms;
      qp->Accumulate(order_, prof);
    }
  }
  return TablePtr(out);
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo
