#include "storage/table.h"

#include <sstream>

namespace relgo {
namespace storage {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (const auto& def : schema_.columns()) {
    columns_.emplace_back(def.type);
  }
}

const Column* Table::FindColumn(const std::string& name) const {
  int idx = schema_.FindColumn(name);
  return idx < 0 ? nullptr : &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch for table " + name_);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    RELGO_RETURN_NOT_OK(columns_[i].AppendValue(values[i]));
  }
  ++num_rows_;
  version_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lock(key_index_mu_);
  key_indexes_.clear();
  return Status::OK();
}

void Table::FinishBulkAppend() {
  num_rows_ = columns_.empty() ? 0 : columns_[0].size();
  version_.fetch_add(1, std::memory_order_release);
  std::lock_guard<std::mutex> lock(key_index_mu_);
  key_indexes_.clear();
}

Result<const std::unordered_map<int64_t, uint64_t>*> Table::GetKeyIndex(
    const std::string& column_name) const {
  std::lock_guard<std::mutex> lock(key_index_mu_);
  auto cached = key_indexes_.find(column_name);
  if (cached != key_indexes_.end()) return &cached->second;

  int idx = schema_.FindColumn(column_name);
  if (idx < 0) {
    return Status::NotFound("no column '" + column_name + "' in " + name_);
  }
  const Column& col = columns_[idx];
  if (col.type() != LogicalType::kInt64) {
    return Status::InvalidArgument("key index requires int64 column");
  }
  std::unordered_map<int64_t, uint64_t> index;
  index.reserve(num_rows_ * 2);
  for (uint64_t r = 0; r < num_rows_; ++r) {
    index[col.int_at(r)] = r;  // later duplicates win; keys are unique by use
  }
  auto [it, _] = key_indexes_.emplace(column_name, std::move(index));
  return &it->second;
}

std::string Table::ToString(uint64_t max_rows) const {
  std::ostringstream os;
  os << name_ << " " << schema_.ToString() << " rows=" << num_rows_ << "\n";
  uint64_t n = std::min<uint64_t>(num_rows_, max_rows);
  for (uint64_t r = 0; r < n; ++r) {
    os << "  [";
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << ", ";
      os << GetValue(r, c).ToString();
    }
    os << "]\n";
  }
  if (n < num_rows_) os << "  ... (" << (num_rows_ - n) << " more)\n";
  return os.str();
}

}  // namespace storage
}  // namespace relgo
