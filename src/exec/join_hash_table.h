#ifndef RELGO_EXEC_JOIN_HASH_TABLE_H_
#define RELGO_EXEC_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/hash.h"
#include "exec/pipeline/batch.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

/// Composite join-key hash table over the rows of one build table, with
/// an exact key re-check on probe (collision-safe). Backs the pipeline
/// engine's hash-join build sink and probe operator, and the index-free
/// EXPAND / EDGE_VERIFY operators.
///
/// Layout: a flat chained table. `hashes_` and `next_` are indexed by
/// build row, `heads_` by bucket (a power of two). Every chain lists its
/// build rows in ascending row order, so probe match order equals a
/// sequential 0..n build however the rows were split across workers
/// (probe emit order is part of the engine-parity contract). A build
/// makes a fixed number of allocations, independent of the row count and
/// the number of distinct keys.
///
/// Construction is two-phase so the pipeline engine can build in parallel,
/// while Probe stays const and safe to call concurrently:
///
///  1. BeginBuild() resolves the key columns and sizes every array.
///  2. PartitionRows(m) hashes morsel `m` (build rows [m * kBatchRows,
///     ...)) and counting-sorts its rows by partition into the morsel's
///     own slice of `order_`, stably, so each partition's rows stay
///     ascending. Morsels write disjoint slots, so all of them can run
///     concurrently, in any order.
///  3. FinalizePartition(p) reads partition `p`'s slices from the last
///     morsel to the first and each slice back to front, i.e. its rows
///     from back to front, and pushes each row onto the front of its
///     bucket's chain — which leaves every chain ascending without a
///     comparison sort. Partitions own disjoint bucket ranges (the top
///     bits of the bucket index) and disjoint rows, so all kNumPartitions
///     calls can run concurrently without locks.
///
/// SQL equality: a build row with a NULL in any key column is never linked,
/// and a probe row with a NULL key matches nothing.
///
/// Build() runs the three phases on the calling thread.
class JoinHashTable {
 public:
  /// Partition count of the partition-parallel phase. Power of two; large
  /// enough to keep 16 workers busy, small enough that tiny build sides
  /// pay only kNumPartitions + 1 slice bounds per morsel.
  static constexpr size_t kNumPartitions = 64;

  /// One resolved build-side key column. int64 keys read the payload
  /// span directly. String keys prefer dictionary codes — one int32
  /// hash/compare per row — when the column carries a dictionary;
  /// otherwise they hash and compare the payload bytes. The
  /// probe side resolves against the build mode, translating through
  /// the build dictionary when its column carries a different or no
  /// dictionary (see BindProbe).
  struct BuildKey {
    LogicalType type = LogicalType::kInt64;
    const int64_t* ints = nullptr;
    const std::string* strs = nullptr;
    const int32_t* codes = nullptr;                   // dict mode only
    const storage::StringDictionary* dict = nullptr;  // dict mode only
    const uint8_t* valid = nullptr;  // nullptr == no NULLs
  };

  /// Phase 1 of 3: resolves `keys` against the build table and sizes the
  /// row, bucket and slice arrays. The table must outlive the hash table.
  /// Keys must be int64 or string columns; string keys use dictionary
  /// codes when the column has one. Fails when the table holds more rows
  /// than the 32-bit row links can address.
  Status BeginBuild(const storage::Table& table,
                    const std::vector<std::string>& keys) {
    keys_.clear();
    for (const auto& k : keys) {
      RELGO_ASSIGN_OR_RETURN(size_t idx, table.schema().GetColumnIndex(k));
      const storage::Column& col = table.column(idx);
      BuildKey bk;
      bk.type = col.type();
      bk.valid = col.validity_data();
      if (bk.type == LogicalType::kInt64) {
        bk.ints = col.data_int64();
      } else if (bk.type == LogicalType::kString) {
        bk.strs = col.data_string();
        if (col.dictionary() != nullptr) {
          bk.codes = col.data_codes();
          bk.dict = col.dictionary();
        }
      } else {
        return Status::NotImplemented(
            "hash join requires int64 or string keys, got " + k);
      }
      keys_.push_back(bk);
    }
    num_rows_ = table.num_rows();
    if (num_rows_ > kEnd) {
      return Status::NotImplemented(
          "hash join build side exceeds 4294967295 rows");
    }
    size_t buckets = kNumPartitions;
    while (buckets < 2 * num_rows_) buckets *= 2;
    bucket_mask_ = buckets - 1;
    partition_shift_ = 0;
    while ((buckets >> partition_shift_) > kNumPartitions) ++partition_shift_;
    num_morsels_ =
        (num_rows_ + pipeline::kBatchRows - 1) / pipeline::kBatchRows;
    hashes_.resize(num_rows_);
    next_.resize(num_rows_);
    order_.resize(num_rows_);
    heads_.assign(buckets, kEnd);
    bounds_.resize(num_morsels_ * (kNumPartitions + 1));
    return Status::OK();
  }

  /// Morsels of the build table (kBatchRows rows each, the last partial):
  /// the index range of PartitionRows.
  uint64_t num_morsels() const { return num_morsels_; }

  /// Phase 2 of 3: hashes morsel `morsel` and groups its rows by
  /// partition in its slice of `order_`. Safe to call concurrently for
  /// distinct morsels.
  void PartitionRows(uint64_t morsel) {
    uint64_t begin = morsel * pipeline::kBatchRows;
    uint64_t end = std::min(begin + pipeline::kBatchRows, num_rows_);
    uint32_t cursor[kNumPartitions] = {};  // row counts, then write slots
    for (uint64_t r = begin; r < end; ++r) {
      if (!BuildKeysValid(r)) continue;  // a NULL key never matches
      size_t h = HashRow(r);
      hashes_[r] = h;
      ++cursor[PartitionOf(h)];
    }
    uint32_t* bound = &bounds_[morsel * (kNumPartitions + 1)];
    uint32_t pos = static_cast<uint32_t>(begin);
    for (size_t p = 0; p < kNumPartitions; ++p) {
      bound[p] = pos;
      pos += cursor[p];
      cursor[p] = bound[p];
    }
    bound[kNumPartitions] = pos;
    for (uint64_t r = begin; r < end; ++r) {
      if (!BuildKeysValid(r)) continue;
      order_[cursor[PartitionOf(hashes_[r])]++] = static_cast<uint32_t>(r);
    }
  }

  /// Phase 3 of 3: links partition `p`'s rows into their bucket chains,
  /// back to front. Safe to call concurrently for distinct `p`, once
  /// every PartitionRows call has returned.
  void FinalizePartition(size_t p) {
    for (uint64_t m = num_morsels_; m-- > 0;) {
      const uint32_t* bound = &bounds_[m * (kNumPartitions + 1)];
      for (uint32_t i = bound[p + 1]; i-- > bound[p];) {
        uint32_t r = order_[i];
        uint32_t& head = heads_[hashes_[r] & bucket_mask_];
        next_[r] = head;
        head = r;
      }
    }
  }

  /// Serial convenience: the three phases on the calling thread.
  Status Build(const storage::Table& table,
               const std::vector<std::string>& keys) {
    RELGO_RETURN_NOT_OK(BeginBuild(table, keys));
    for (uint64_t m = 0; m < num_morsels_; ++m) PartitionRows(m);
    for (size_t p = 0; p < kNumPartitions; ++p) FinalizePartition(p);
    return Status::OK();
  }

  /// Per-probe-table resolved key spans: bind once per table / batch,
  /// then Probe per row. For a string key, `shared` marks a probe
  /// column carrying the exact build dictionary (codes compare
  /// directly); otherwise the probe string translates through the build
  /// dictionary per row — a miss proves no build row can match.
  struct ProbeView {
    struct Key {
      const int64_t* ints = nullptr;
      const std::string* strs = nullptr;
      const int32_t* codes = nullptr;  // valid when shared
      const uint8_t* valid = nullptr;  // nullptr == no NULLs
      bool shared = false;
    };
    std::vector<Key> keys;
  };

  /// True when any build key is a string column — the probe side then
  /// probes through BindProbe/ProbeView instead of hoisted int64 spans.
  bool has_string_keys() const {
    for (const BuildKey& k : keys_) {
      if (k.type == LogicalType::kString) return true;
    }
    return false;
  }

  /// Resolves `probe_cols` of `probe` against the build keys (types must
  /// match pairwise). Templated over the row source: storage::Table and
  /// the pipeline's Batch both expose column(i).
  template <typename Source>
  Status BindProbe(const Source& probe,
                   const std::vector<size_t>& probe_cols,
                   ProbeView* view) const {
    view->keys.clear();
    for (size_t i = 0; i < probe_cols.size(); ++i) {
      const storage::Column& col = probe.column(probe_cols[i]);
      const BuildKey& bk = keys_[i];
      if (col.type() != bk.type) {
        return Status::InvalidArgument("probe/build join key type mismatch");
      }
      ProbeView::Key k;
      k.valid = col.validity_data();
      if (bk.type == LogicalType::kInt64) {
        k.ints = col.data_int64();
      } else {
        k.strs = col.data_string();
        if (bk.dict != nullptr && col.dictionary() == bk.dict) {
          k.codes = col.data_codes();
          k.shared = true;
        }
      }
      view->keys.push_back(k);
    }
    return Status::OK();
  }

  /// Appends matching build-side rows for probe row `row` of a bound
  /// probe view into `out`, in ascending build-row order.
  void Probe(const ProbeView& view, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t i = 0; i < keys_.size(); ++i) {
      const BuildKey& bk = keys_[i];
      const ProbeView::Key& pk = view.keys[i];
      if (pk.valid != nullptr && pk.valid[row] == 0) return;
      if (bk.type == LogicalType::kInt64) {
        h = HashCombine(h, static_cast<size_t>(pk.ints[row]));
      } else if (bk.dict != nullptr) {
        int32_t code =
            pk.shared ? pk.codes[row] : bk.dict->Find(pk.strs[row]);
        if (code < 0) return;  // absent from the build dictionary
        h = HashCombine(h, static_cast<size_t>(code));
      } else {
        h = HashCombine(h, TypedHash(pk.strs[row]));
      }
    }
    ProbeHash(
        h,
        [&](uint64_t build_row) {
          for (size_t i = 0; i < keys_.size(); ++i) {
            const BuildKey& bk = keys_[i];
            const ProbeView::Key& pk = view.keys[i];
            bool match;
            if (bk.type == LogicalType::kInt64) {
              match = bk.ints[build_row] == pk.ints[row];
            } else if (bk.dict != nullptr && pk.shared) {
              match = bk.codes[build_row] == pk.codes[row];
            } else {
              match = bk.strs[build_row] == pk.strs[row];
            }
            if (!match) return false;
          }
          return true;
        },
        out);
  }

  /// Appends matching build-side rows for probe row (cols `probe_cols` of
  /// `probe`) into `out`. Per-row convenience for int64 keys
  /// (bit-identical to the typed-span overload below).
  void Probe(const storage::Table& probe,
             const std::vector<size_t>& probe_cols, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t c : probe_cols) {
      const storage::Column& col = probe.column(c);
      if (!col.is_valid(row)) return;
      h = HashCombine(h, static_cast<size_t>(col.int_at(row)));
    }
    ProbeInt64(
        h, [&](size_t i) { return probe.column(probe_cols[i]).int_at(row); },
        out);
  }

  /// Typed-span probe: `keys[i]` is the raw int64 payload of the i-th
  /// probe key column, hoisted once per table / batch by the caller (the
  /// pipeline's hot probe loop). Bit-identical to the overloads
  /// above — int_at reads the same payload the spans expose. The spans
  /// carry no validity: the caller skips probe rows with a NULL key.
  void Probe(const int64_t* const* keys, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t i = 0; i < keys_.size(); ++i) {
      h = HashCombine(h, static_cast<size_t>(keys[i][row]));
    }
    ProbeInt64(h, [&](size_t i) { return keys[i][row]; }, out);
  }

 private:
  /// End of a chain; also bounds the build side to kEnd rows.
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  /// Walks the chain of hash `h`, appending rows whose hash and keys match.
  template <typename KeysEqual>
  void ProbeHash(size_t h, const KeysEqual& keys_equal,
                 std::vector<uint64_t>* out) const {
    for (uint32_t r = heads_[h & bucket_mask_]; r != kEnd; r = next_[r]) {
      if (hashes_[r] == h && keys_equal(r)) out->push_back(r);
    }
  }

  template <typename KeyAt>
  void ProbeInt64(size_t h, const KeyAt& key_at,
                  std::vector<uint64_t>* out) const {
    ProbeHash(
        h,
        [&](uint64_t build_row) {
          for (size_t i = 0; i < keys_.size(); ++i) {
            if (keys_[i].ints[build_row] != key_at(i)) return false;
          }
          return true;
        },
        out);
  }

  bool BuildKeysValid(uint64_t r) const {
    for (const BuildKey& k : keys_) {
      if (k.valid != nullptr && k.valid[r] == 0) return false;
    }
    return true;
  }

  size_t PartitionOf(size_t h) const {
    return (h & bucket_mask_) >> partition_shift_;
  }

  size_t HashRow(uint64_t r) const {
    size_t h = kHashSeed;
    for (const BuildKey& k : keys_) {
      if (k.type == LogicalType::kInt64) {
        h = HashCombine(h, static_cast<size_t>(k.ints[r]));
      } else if (k.dict != nullptr) {
        h = HashCombine(h, static_cast<size_t>(k.codes[r]));
      } else {
        h = HashCombine(h, TypedHash(k.strs[r]));
      }
    }
    return h;
  }

  std::vector<BuildKey> keys_;  ///< resolved key spans, one per key
  uint64_t num_rows_ = 0;
  uint64_t num_morsels_ = 0;
  size_t bucket_mask_ = 0;
  int partition_shift_ = 0;  ///< bucket index >> shift == partition
  std::vector<size_t> hashes_;  ///< per build row (linked rows only)
  std::vector<uint32_t> next_;  ///< per build row: next row of its chain
  std::vector<uint32_t> heads_;  ///< per bucket: first (lowest) row
  /// Used only while building: rows grouped per morsel by partition.
  /// Morsel m's slice starts at m * kBatchRows like its rows; NULL-key
  /// rows are left out.
  std::vector<uint32_t> order_;
  /// [m * (kNumPartitions + 1) + p]: where partition p's rows start in
  /// morsel m's slice of `order_`; entry kNumPartitions ends the slice.
  std::vector<uint32_t> bounds_;
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_JOIN_HASH_TABLE_H_
