#ifndef RELGO_EXEC_EXEC_COMMON_H_
#define RELGO_EXEC_EXEC_COMMON_H_

#include <string>
#include <vector>

#include "exec/context.h"
#include "plan/spjm_query.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

/// Builds a table whose columns are the child's columns gathered by `sel`.
inline storage::TablePtr GatherTable(const storage::Table& src,
                                     const std::vector<uint64_t>& sel,
                                     const std::string& name) {
  auto out = std::make_shared<storage::Table>(name, src.schema());
  for (size_t c = 0; c < src.num_columns(); ++c) {
    out->column(c) = src.column(c).Gather(sel);
  }
  out->FinishBulkAppend();
  return out;
}

/// Output schema of a base-table scan: "alias.col" for each kept column,
/// preceded by "alias.$rid" when requested. `raw_indexes` receives the
/// source column index behind each emitted attribute column.
inline storage::Schema ScanSchema(const storage::Table& table,
                                  const std::string& alias,
                                  const std::vector<std::string>& projected,
                                  bool emit_rowid,
                                  std::vector<int>* raw_indexes) {
  storage::Schema out;
  if (emit_rowid) {
    (void)out.AddColumn({alias + ".$rid", LogicalType::kInt64});
  }
  if (projected.empty()) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      (void)out.AddColumn({alias + "." + table.schema().column(c).name,
                           table.schema().column(c).type});
      raw_indexes->push_back(static_cast<int>(c));
    }
  } else {
    for (const auto& col : projected) {
      int idx = table.schema().FindColumn(col);
      if (idx < 0) continue;  // validated by the optimizer
      (void)out.AddColumn(
          {alias + "." + col, table.schema().column(idx).type});
      raw_indexes->push_back(idx);
    }
  }
  return out;
}

/// Binding-table schema: one int64 column per variable.
inline storage::Schema BindingSchema(const std::vector<std::string>& vars) {
  storage::Schema s;
  for (const auto& v : vars) (void)s.AddColumn({v, LogicalType::kInt64});
  return s;
}

/// Three-way ORDER BY key comparison over boxed Values (null ordering,
/// per-key direction): the reference interpreter's ORDER BY and the
/// pipeline TopKSink's boxed heap rows. `a` / `b` map a key index to that
/// row's key Value. Returns <0 / 0 / >0; ties are the caller's to break
/// (stable sort order, or the pipeline's (morsel, row) sequence).
template <typename AValueAt, typename BValueAt>
int CompareSortKeyValues(const std::vector<plan::SortKey>& keys,
                         const AValueAt& a, const BValueAt& b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a(i).Compare(b(i));
    if (c != 0) return keys[i].ascending ? c : -c;
  }
  return 0;
}

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_EXEC_COMMON_H_
