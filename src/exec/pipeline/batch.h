#ifndef RELGO_EXEC_PIPELINE_BATCH_H_
#define RELGO_EXEC_PIPELINE_BATCH_H_

#include <memory>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace relgo {
namespace exec {
namespace pipeline {

/// Rows per morsel and the bound on every batch a pipeline moves: a
/// source emits at most kBatchRows rows per morsel, and every streaming
/// operator emits at most kBatchRows rows per call, resuming from a cursor
/// when its output would overflow (see StreamingOp). Large enough to
/// amortize per-batch dispatch, small enough that a batch's working set
/// stays cache-resident.
constexpr uint64_t kBatchRows = 2048;

/// A shared, immutable column vector. Batches share columns with their
/// producers (zero-copy) wherever a column passes through unchanged —
/// projection reorders, full-table morsels, join pass-through sides.
using ColumnRef = std::shared_ptr<const storage::Column>;

/// A shared, immutable selection vector: the ascending physical rows of a
/// batch's columns that make up its logical rows.
using SelectionRef = std::shared_ptr<const std::vector<uint64_t>>;

/// A horizontal chunk of a binding or relational table: equal-length
/// immutable column vectors, optionally viewed through a selection vector.
/// The column *names/types* are not carried per batch — every operator in
/// a pipeline resolves its input schema once during Prepare, so batches
/// stay lightweight.
///
/// Selection rule: a flat batch's logical row i is physical row i of its
/// columns; a selected batch's logical row i is physical row selection()[i].
/// Filters and one-row-per-input expansions narrow the selection instead
/// of copying the columns, operators that gather anyway (fanning-out
/// expansions, joins, pi-hat) fold it into that gather, and sinks receive
/// flat batches only.
class Batch {
 public:
  /// Logical rows (the selection's length when there is one).
  uint64_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Physical columns; index them through selection() when it is set.
  const storage::Column& column(size_t i) const { return *columns_[i]; }
  const ColumnRef& column_ref(size_t i) const { return columns_[i]; }

  bool has_selection() const { return selection_ != nullptr; }
  /// Physical row of every logical row; null for a flat batch.
  const uint64_t* selection() const {
    return selection_ == nullptr ? nullptr : selection_->data();
  }
  const SelectionRef& selection_ref() const { return selection_; }

  void Clear() {
    columns_.clear();
    selection_.reset();
    num_rows_ = 0;
  }

  /// Room for `n` columns, so adding them allocates once.
  void ReserveColumns(size_t n) { columns_.reserve(n); }

  /// Shares an existing column (zero-copy).
  void AddColumn(ColumnRef col) { columns_.push_back(std::move(col)); }

  /// Takes ownership of a freshly built column.
  void AddOwned(storage::Column col) {
    columns_.push_back(std::make_shared<storage::Column>(std::move(col)));
  }

  /// Must be called after all columns are added; `n` is the common length.
  void SetNumRows(uint64_t n) { num_rows_ = n; }

  /// Views the columns through `sel` (ascending physical rows); sets the
  /// logical row count to its length.
  void SetSelection(SelectionRef sel) {
    num_rows_ = sel->size();
    selection_ = std::move(sel);
  }

  /// The same columns (shared, zero-copy) narrowed to the physical rows
  /// `rows`, which must be ascending and a subset of this batch's rows.
  Batch Select(std::vector<uint64_t> rows) const {
    Batch out;
    out.columns_ = columns_;
    out.SetSelection(
        std::make_shared<const std::vector<uint64_t>>(std::move(rows)));
    return out;
  }

  /// Materializes the physical rows `rows` of every column into a flat
  /// batch, with room for `extra_columns` more columns.
  Batch Gather(const std::vector<uint64_t>& rows,
               size_t extra_columns = 0) const {
    Batch out;
    out.columns_.reserve(columns_.size() + extra_columns);
    for (const auto& col : columns_) out.AddOwned(col->Gather(rows));
    out.SetNumRows(rows.size());
    return out;
  }

  /// This batch as a flat batch: shared as is when already flat,
  /// gathered through the selection otherwise.
  Batch Flatten() const {
    return selection_ == nullptr ? *this : Gather(*selection_);
  }

  /// Loose-column pointer array for expression evaluation
  /// (storage::Expr::EvaluateBool(const Column* const*, row)); physical
  /// columns, so callers flatten first.
  std::vector<const storage::Column*> ColumnPointers() const {
    std::vector<const storage::Column*> out;
    out.reserve(columns_.size());
    for (const auto& col : columns_) out.push_back(col.get());
    return out;
  }

 private:
  std::vector<ColumnRef> columns_;
  SelectionRef selection_;  ///< null == flat
  uint64_t num_rows_ = 0;
};

/// Shares column `col` of `table` without copying; the returned ColumnRef
/// keeps the whole table alive (aliasing shared_ptr).
inline ColumnRef ShareTableColumn(const storage::TablePtr& table,
                                  size_t col) {
  return ColumnRef(table, &table->column(col));
}

/// Builds a batch over rows [begin, begin + count) of `table`. The
/// whole-table case shares every column zero-copy; proper sub-ranges are
/// bulk-copied via Column::Slice.
inline Batch SliceTable(const storage::TablePtr& table, uint64_t begin,
                        uint64_t count) {
  Batch out;
  if (begin == 0 && count == table->num_rows()) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      out.AddColumn(ShareTableColumn(table, c));
    }
  } else {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      out.AddOwned(table->column(c).Slice(begin, count));
    }
  }
  out.SetNumRows(count);
  return out;
}

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_BATCH_H_
