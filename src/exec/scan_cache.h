#ifndef RELGO_EXEC_SCAN_CACHE_H_
#define RELGO_EXEC_SCAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/expression.h"

namespace relgo {
namespace exec {

/// Cross-query filter cache (ROADMAP "Shared scan caching").
///
/// Concurrent workloads re-scan the same base tables with the same pushed
/// predicates over and over; the expensive part — evaluating the predicate
/// per row — produces a pass bitmap (one byte per base row) that depends
/// only on (table contents, predicate). This cache stores those bitmaps
/// keyed by "<table>|<rendered predicate>" (see Key), so any query that
/// filters a known table with a known predicate — a filtered scan source
/// or an expansion-style operator — replays the bitmap instead of
/// re-evaluating. Unfiltered scans are never cached: they have no per-row
/// work to amortize.
///
/// Correctness: a hit returns exactly the bytes the filter pass would
/// have produced, and callers keep charging the same row budget — results
/// and resource accounting are bit-identical with the cache on or off.
/// Staleness is handled by the owning table's version counter
/// (storage::Table::version): every entry records the version it was
/// computed against, and a lookup under a different version drops the
/// entry and reports a miss.
///
/// Thread-safety: fully synchronized; Get/Put/Clear/stats may be called
/// from any number of concurrent queries. Eviction is LRU under a byte
/// budget (1 byte per bitmap byte plus key overhead). Admission is
/// cost-aware: one entry may occupy at most kAdmitCapNum/kAdmitCapDen of
/// the budget, so a single huge bitmap can never wipe out many
/// colder-but-still-hot entries; those under the cap are admitted by
/// evicting from the cold (LRU tail) end first.
class ScanCache {
 public:
  using BitmapPtr = std::shared_ptr<const std::vector<uint8_t>>;

  /// Monotonic counters (lifetime totals; never reset by eviction).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;         ///< lookups that found nothing usable
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< LRU evictions under the byte budget
    uint64_t invalidations = 0;  ///< entries dropped on version mismatch
    uint64_t rejections = 0;     ///< entries refused by the admission cap
    uint64_t Lookups() const { return hits + misses; }
    double HitRate() const {
      uint64_t n = Lookups();
      return n == 0 ? 0.0 : static_cast<double>(hits) / n;
    }
  };

  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  /// Largest admissible entry as a fraction of the byte budget. 1/2 keeps
  /// at least two distinct hot filters resident under any workload while
  /// still admitting bitmaps over multi-million-row tables at the default
  /// budget (32 MB of pass bytes = 32M rows).
  static constexpr size_t kAdmitCapNum = 1;
  static constexpr size_t kAdmitCapDen = 2;

  explicit ScanCache(size_t max_bytes = kDefaultMaxBytes)
      : max_bytes_(max_bytes) {}

  ScanCache(const ScanCache&) = delete;
  ScanCache& operator=(const ScanCache&) = delete;

  /// Cache key of a filter over a base table: "<table>|<pred>", with the
  /// predicate rendered by value and doubles at round-trip precision
  /// (Expr::ToKeyString), so distinct constants never share a key.
  static std::string Key(const std::string& table,
                         const storage::ExprPtr& filter);

  /// The bitmap cached under `key` if present and computed at
  /// `table_version`; null on miss. A version mismatch invalidates the
  /// entry. A hit refreshes LRU recency.
  BitmapPtr Get(const std::string& key, uint64_t table_version);

  /// Stores `bitmap` under `key` at `table_version`, evicting LRU entries
  /// (coldest first) until the byte budget holds. An entry larger than
  /// the admission cap (kAdmitCapNum/kAdmitCapDen of the budget) is not
  /// stored. Replaces an existing entry for `key`.
  void Put(const std::string& key, uint64_t table_version, BitmapPtr bitmap);

  void Clear();

  Stats stats() const;
  size_t entries() const;
  size_t bytes() const;
  size_t max_bytes() const { return max_bytes_; }
  size_t admit_cap_bytes() const {
    return max_bytes_ / kAdmitCapDen * kAdmitCapNum;
  }

 private:
  struct Entry {
    std::string key;
    uint64_t version = 0;
    BitmapPtr bitmap;
    size_t bytes = 0;
  };

  static constexpr size_t kEntryOverhead = 64;  // list/map node estimate

  /// Drops `it` (must be valid) and its index entry. Caller holds mu_.
  void EraseLocked(std::list<Entry>::iterator it);

  const size_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  Stats stats_;
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_SCAN_CACHE_H_
