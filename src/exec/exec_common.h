#ifndef RELGO_EXEC_EXEC_COMMON_H_
#define RELGO_EXEC_EXEC_COMMON_H_

#include <string>
#include <vector>

#include "exec/context.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

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

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_EXEC_COMMON_H_
