#ifndef RELGO_EXEC_SCAN_CACHE_H_
#define RELGO_EXEC_SCAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/versioned_lru.h"
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
/// Staleness: each entry records the version of its table
/// (storage::Table::version) it was computed at, and a lookup under
/// another version drops it (VersionedLru).
///
/// Eviction is LRU under a byte budget (1 byte per bitmap byte plus key
/// overhead). Admission is cost-aware: one entry may occupy at most
/// kAdmitCapNum/kAdmitCapDen of the budget, so a single huge bitmap can
/// never wipe out many colder-but-still-hot entries. Re-storing a live
/// key counts as an insertion.
class ScanCache
    : public VersionedLru<std::shared_ptr<const std::vector<uint8_t>>> {
 public:
  using BitmapPtr = std::shared_ptr<const std::vector<uint8_t>>;

  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  /// Largest admissible entry as a fraction of the byte budget. 1/2 keeps
  /// at least two distinct hot filters resident under any workload while
  /// still admitting bitmaps over multi-million-row tables at the default
  /// budget (32 MB of pass bytes = 32M rows).
  static constexpr size_t kAdmitCapNum = 1;
  static constexpr size_t kAdmitCapDen = 2;

  explicit ScanCache(size_t max_bytes = kDefaultMaxBytes)
      : VersionedLru(max_bytes, max_bytes / kAdmitCapDen * kAdmitCapNum,
                     /*count_replacements=*/true) {}

  /// Cache key of a filter over a base table: "<table>|<pred>", with the
  /// predicate rendered by value and doubles at round-trip precision
  /// (Expr::ToKeyString), so distinct constants never share a key.
  static std::string Key(const std::string& table,
                         const storage::ExprPtr& filter) {
    return table + "|" + (filter ? filter->ToKeyString() : "");
  }

  /// Stores `bitmap` under `key` at `table_version`, charged its bytes
  /// plus the key and a node overhead.
  void Put(const std::string& key, uint64_t table_version, BitmapPtr bitmap) {
    if (bitmap == nullptr) return;
    size_t bytes = key.size() + bitmap->size() + kEntryOverhead;
    VersionedLru::Put(key, table_version, std::move(bitmap), bytes);
  }

  size_t bytes() const { return total_cost(); }
  size_t max_bytes() const { return budget(); }
  size_t admit_cap_bytes() const { return max_entry_cost(); }

 private:
  static constexpr size_t kEntryOverhead = 64;  // list/map node estimate
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_SCAN_CACHE_H_
