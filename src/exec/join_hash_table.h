#ifndef RELGO_EXEC_JOIN_HASH_TABLE_H_
#define RELGO_EXEC_JOIN_HASH_TABLE_H_

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "storage/table.h"

namespace relgo {
namespace exec {

/// Composite join-key hash table: hash -> row buckets with exact re-check
/// on probe (collision-safe). Backs the pipeline engine's hash-join build
/// sink and probe operator.
///
/// Construction is two-phase so the pipeline engine can build in parallel
/// (partition -> finalize), while Probe stays const and safe to call
/// concurrently:
///
///  1. BeginBuild() resolves the key columns and fixes the partition
///     directory: the bucket space is split into kNumPartitions shards by
///     high hash bits, each shard an independent hash map.
///  2. PartitionRows() is const and thread-safe: each worker scatters the
///     (hash, row) pairs of a disjoint row range into a private
///     BuildPartial, one append-only run per partition.
///  3. FinalizePartition() inserts every partial's entries for ONE
///     partition into that partition's shard. Distinct partitions touch
///     disjoint state, so all kNumPartitions finalize calls can run
///     concurrently. Entries are sorted by row id first, which makes the
///     bucket contents (and therefore probe match order) identical to a
///     sequential 0..n build regardless of how rows were partitioned
///     across workers.
///
/// Build() wraps the three phases into a serial convenience.
class JoinHashTable {
 public:
  /// Shard count of the partition directory. Power of two; large enough to
  /// keep 16 workers busy during finalize, small enough that tiny build
  /// sides do not pay directory overhead.
  static constexpr size_t kNumPartitions = 64;

  struct Entry {
    size_t hash;
    uint64_t row;
  };

  /// One worker's scatter output: an append-only (hash, row) run per
  /// partition. No ordering is assumed across (or within) runs —
  /// FinalizePartition sorts by row id before inserting.
  struct BuildPartial {
    std::array<std::vector<Entry>, kNumPartitions> runs;
  };

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
  };

  /// Phase 1 of 3: resolves `keys` against the build table and preallocates
  /// the partition directory. The table must outlive the hash table.
  /// Keys must be int64 or string columns; string keys use dictionary
  /// codes when the column has one. Like
  /// the int64 path's null => payload-0 convention, string nulls hash
  /// and compare as their "" payload placeholder.
  Status BeginBuild(const storage::Table& table,
                    const std::vector<std::string>& keys) {
    table_ = &table;
    key_cols_.clear();
    keyspans_.clear();
    build_keys_.clear();
    bool all_int64 = true;
    for (const auto& k : keys) {
      RELGO_ASSIGN_OR_RETURN(size_t idx, table.schema().GetColumnIndex(k));
      const storage::Column& col = table.column(idx);
      BuildKey bk;
      bk.type = col.type();
      if (bk.type == LogicalType::kInt64) {
        bk.ints = col.data_int64();
      } else if (bk.type == LogicalType::kString) {
        all_int64 = false;
        bk.strs = col.data_string();
        if (col.dictionary() != nullptr) {
          bk.codes = col.data_codes();
          bk.dict = col.dictionary();
        }
      } else {
        return Status::NotImplemented(
            "hash join requires int64 or string keys, got " + k);
      }
      key_cols_.push_back(idx);
      keyspans_.push_back(bk);
    }
    // Hoist the int64 payload spans once: the typed-span Probe
    // overload and its hash re-check read raw slots instead of going
    // through Column per row. Only populated for all-int64 key sets —
    // the planner's joins (binding columns) are exactly that; string
    // keys go through BindProbe/ProbeView.
    if (all_int64) {
      for (size_t idx : key_cols_) {
        build_keys_.push_back(table.column(idx).data_int64());
      }
    }
    return Status::OK();
  }

  /// Phase 2 of 3: scatters rows [begin, begin + count) into `partial`.
  /// Const and thread-safe over disjoint ranges.
  void PartitionRows(uint64_t begin, uint64_t count,
                     BuildPartial* partial) const {
    for (uint64_t r = begin; r < begin + count; ++r) {
      size_t h = HashRow(r);
      partial->runs[PartitionOf(h)].push_back(Entry{h, r});
    }
  }

  /// Phase 3 of 3: merges every partial's run for partition `p` into shard
  /// `p`. Safe to call concurrently for distinct `p`.
  void FinalizePartition(size_t p, std::vector<BuildPartial>* partials) {
    size_t total = 0;
    for (const BuildPartial& partial : *partials) {
      total += partial.runs[p].size();
    }
    if (total == 0) return;
    // Restore global row order (rows are unique, so a plain sort suffices)
    // so bucket vectors equal the sequential build's — probe emit order is
    // part of the engine-parity contract.
    std::vector<Entry> entries;
    entries.reserve(total);
    for (const BuildPartial& partial : *partials) {
      entries.insert(entries.end(), partial.runs[p].begin(),
                     partial.runs[p].end());
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.row < b.row; });
    auto& shard = shards_[p];
    shard.reserve(total * 2);
    for (const Entry& e : entries) shard[e.hash].push_back(e.row);
  }

  /// Serial convenience: the three phases on the calling thread.
  Status Build(const storage::Table& table,
               const std::vector<std::string>& keys) {
    RELGO_RETURN_NOT_OK(BeginBuild(table, keys));
    std::vector<BuildPartial> partials(1);
    PartitionRows(0, table.num_rows(), &partials[0]);
    for (size_t p = 0; p < kNumPartitions; ++p) {
      FinalizePartition(p, &partials);
    }
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
      bool shared = false;
    };
    std::vector<Key> keys;
  };

  /// True when any build key is a string column — the probe side then
  /// probes through BindProbe/ProbeView instead of hoisted int64 spans.
  bool has_string_keys() const {
    for (const BuildKey& k : keyspans_) {
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
      const BuildKey& bk = keyspans_[i];
      if (col.type() != bk.type) {
        return Status::InvalidArgument("probe/build join key type mismatch");
      }
      ProbeView::Key k;
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
  /// probe view into `out`.
  void Probe(const ProbeView& view, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t i = 0; i < keyspans_.size(); ++i) {
      const BuildKey& bk = keyspans_[i];
      const ProbeView::Key& pk = view.keys[i];
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
    const Shard& shard = shards_[PartitionOf(h)];
    auto it = shard.find(h);
    if (it == shard.end()) return;
    for (uint64_t build_row : it->second) {
      bool match = true;
      for (size_t i = 0; i < keyspans_.size(); ++i) {
        const BuildKey& bk = keyspans_[i];
        const ProbeView::Key& pk = view.keys[i];
        if (bk.type == LogicalType::kInt64) {
          match = bk.ints[build_row] == pk.ints[row];
        } else if (bk.dict != nullptr && pk.shared) {
          match = bk.codes[build_row] == pk.codes[row];
        } else {
          match = bk.strs[build_row] == pk.strs[row];
        }
        if (!match) break;
      }
      if (match) out->push_back(build_row);
    }
  }

  /// Appends matching build-side rows for probe row (cols `probe_cols` of
  /// `probe`) into `out`. Per-row convenience over BindProbe for int64
  /// keys (bit-identical to the typed-span overload below).
  void Probe(const storage::Table& probe,
             const std::vector<size_t>& probe_cols, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t c : probe_cols) {
      h = HashCombine(h, static_cast<size_t>(probe.column(c).int_at(row)));
    }
    ProbeHash(h,
              [&](size_t i) { return probe.column(probe_cols[i]).int_at(row); },
              out);
  }

  /// Typed-span probe: `keys[i]` is the raw int64 payload of the i-th
  /// probe key column, hoisted once per table / batch by the caller (the
  /// pipeline's hot probe loop). Bit-identical to the overloads
  /// above — int_at reads the same payload the spans expose.
  void Probe(const int64_t* const* keys, uint64_t row,
             std::vector<uint64_t>* out) const {
    size_t h = kHashSeed;
    for (size_t i = 0; i < key_cols_.size(); ++i) {
      h = HashCombine(h, static_cast<size_t>(keys[i][row]));
    }
    ProbeHash(h, [&](size_t i) { return keys[i][row]; }, out);
  }

 private:
  using Shard = std::unordered_map<size_t, std::vector<uint64_t>>;

  /// Partition selector. unordered_map consumes the low hash bits for its
  /// bucket index, so the directory uses higher bits to stay uncorrelated.
  static size_t PartitionOf(size_t h) {
    return (h >> 24) & (kNumPartitions - 1);
  }

  template <typename KeyAt>
  void ProbeHash(size_t h, const KeyAt& key_at,
                 std::vector<uint64_t>* out) const {
    const Shard& shard = shards_[PartitionOf(h)];
    auto it = shard.find(h);
    if (it == shard.end()) return;
    for (uint64_t build_row : it->second) {
      bool match = true;
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        if (build_keys_[i][build_row] != key_at(i)) {
          match = false;
          break;
        }
      }
      if (match) out->push_back(build_row);
    }
  }

  size_t HashRow(uint64_t r) const {
    size_t h = kHashSeed;
    for (const BuildKey& k : keyspans_) {
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

  const storage::Table* table_ = nullptr;
  std::vector<size_t> key_cols_;
  std::vector<BuildKey> keyspans_;  ///< resolved key spans, one per key
  /// int64 payload spans, populated only for all-int64 key sets (the
  /// planner's joins) — backs the typed-span Probe overload.
  std::vector<const int64_t*> build_keys_;
  std::array<Shard, kNumPartitions> shards_;
};

}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_JOIN_HASH_TABLE_H_
