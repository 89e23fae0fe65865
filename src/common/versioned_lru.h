#ifndef RELGO_COMMON_VERSIONED_LRU_H_
#define RELGO_COMMON_VERSIONED_LRU_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace relgo {

/// The LRU behind the plan cache and the scan cache: string keys, each
/// value valid at one data version, and a per-entry cost charged against
/// a budget (1 per plan, bytes per filter bitmap). Invalidation is exact,
/// never timed: a lookup under a different version drops the entry
/// (versions are monotonic, so it can never be valid again) and counts a
/// miss and an invalidation. Internally synchronized.
template <typename V>
class VersionedLru {
 public:
  /// Monotonic counters (lifetime totals; Clear drops entries, not these).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;         ///< lookups that found nothing usable
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< LRU evictions under the budget
    uint64_t invalidations = 0;  ///< entries dropped on version mismatch
    uint64_t rejections = 0;     ///< entries costlier than max_entry_cost
    uint64_t Lookups() const { return hits + misses; }
    double HitRate() const {
      return Lookups() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(Lookups());
    }
  };

  /// `budget` caps the summed cost of the entries; one entry may cost at
  /// most `max_entry_cost`. With `count_replacements`, a Put over a live
  /// key counts as an insertion; otherwise it replaces the entry uncounted.
  VersionedLru(size_t budget, size_t max_entry_cost, bool count_replacements)
      : budget_(budget),
        max_entry_cost_(max_entry_cost),
        count_replacements_(count_replacements) {}

  VersionedLru(const VersionedLru&) = delete;
  VersionedLru& operator=(const VersionedLru&) = delete;

  /// The value under `key` if present and stored at `version`, refreshing
  /// its recency; a default (null) V otherwise.
  V Get(const std::string& key, uint64_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return V();
    }
    if (it->second->version != version) {
      ++stats_.invalidations;
      ++stats_.misses;
      EraseLocked(it->second);
      return V();
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  /// Stores `value` under `key` at `version` as the most recent entry,
  /// replacing any entry for `key` and evicting the coldest entries until
  /// the budget holds. A null value is ignored; an entry costlier than
  /// max_entry_cost is refused (a rejection), so one huge entry never
  /// wipes out many colder-but-still-hot ones.
  void Put(const std::string& key, uint64_t version, V value,
           size_t cost = 1) {
    if (!value) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (cost > max_entry_cost_) {
      ++stats_.rejections;
      return;
    }
    auto it = index_.find(key);
    bool replacing = it != index_.end();
    if (replacing) EraseLocked(it->second);
    if (!replacing || count_replacements_) ++stats_.insertions;
    while (cost_ + cost > budget_ && !lru_.empty()) {
      ++stats_.evictions;
      EraseLocked(std::prev(lru_.end()));
    }
    cost_ += cost;
    lru_.push_front(Entry{key, version, std::move(value), cost});
    index_[key] = lru_.begin();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.clear();
    index_.clear();
    cost_ = 0;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  size_t entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_.size();
  }
  /// Summed cost of the live entries.
  size_t total_cost() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cost_;
  }
  size_t budget() const { return budget_; }
  size_t max_entry_cost() const { return max_entry_cost_; }

 private:
  struct Entry {
    std::string key;
    uint64_t version = 0;
    V value;
    size_t cost = 0;
  };

  /// Drops `it` and its index entry. Caller holds mu_.
  void EraseLocked(typename std::list<Entry>::iterator it) {
    cost_ -= it->cost;
    index_.erase(it->key);
    lru_.erase(it);
  }

  const size_t budget_;
  const size_t max_entry_cost_;
  const bool count_replacements_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, typename std::list<Entry>::iterator> index_;
  size_t cost_ = 0;
  Stats stats_;
};

}  // namespace relgo

#endif  // RELGO_COMMON_VERSIONED_LRU_H_
