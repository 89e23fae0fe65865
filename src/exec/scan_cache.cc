#include "exec/scan_cache.h"

namespace relgo {
namespace exec {

std::string ScanCache::Key(const std::string& table,
                           const storage::ExprPtr& filter) {
  return table + "|" + (filter ? filter->ToKeyString() : "");
}

ScanCache::BitmapPtr ScanCache::Get(const std::string& key,
                                    uint64_t table_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second->version != table_version) {
    // The table mutated since this entry was computed; it can never be
    // valid again (versions are monotonic), so drop it now.
    ++stats_.invalidations;
    ++stats_.misses;
    EraseLocked(it->second);
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->bitmap;
}

void ScanCache::Put(const std::string& key, uint64_t table_version,
                    BitmapPtr bitmap) {
  if (bitmap == nullptr) return;
  size_t bytes = key.size() + bitmap->size() + kEntryOverhead;
  std::lock_guard<std::mutex> lock(mu_);
  // Cost-aware admission: one entry may take at most the admission cap,
  // never the whole budget — a single huge bitmap must not evict every
  // colder-but-still-hot entry.
  if (bytes > admit_cap_bytes()) {
    ++stats_.rejections;
    return;
  }
  auto it = index_.find(key);
  if (it != index_.end()) EraseLocked(it->second);
  while (bytes_ + bytes > max_bytes_ && !lru_.empty()) {
    ++stats_.evictions;
    EraseLocked(std::prev(lru_.end()));  // coldest first
  }
  bytes_ += bytes;
  lru_.push_front(Entry{key, table_version, std::move(bitmap), bytes});
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

void ScanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

void ScanCache::EraseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
}

ScanCache::Stats ScanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ScanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t ScanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace exec
}  // namespace relgo
