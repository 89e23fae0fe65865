#ifndef RELGO_EXEC_VECTOR_TYPED_KEYS_H_
#define RELGO_EXEC_VECTOR_TYPED_KEYS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/value.h"
#include "storage/column.h"

namespace relgo {
namespace exec {
namespace vector {

// ---------------------------------------------------------------------------
// Group keys as fixed-width words
// ---------------------------------------------------------------------------

/// The strings of one aggregate partial that no pinned dictionary codes,
/// numbered in first-sight order. A key word refers to them by number, so
/// a word is only meaningful next to the KeyStrings it was encoded with.
class KeyStrings {
 public:
  /// Number of `s`, adding it when absent.
  uint32_t Intern(const std::string& s);
  const std::string& at(uint32_t id) const { return *by_id_[id]; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<const std::string*> by_id_;  // keys of ids_ (node-stable)
};

/// Encodes group keys, a batch at a time, as fixed-width words for a fixed
/// sequence of key column types, and decodes them back into typed columns.
///
/// A key is width() words: one 64-bit word per key column, then one null
/// word per 64 key columns whose bit i % 64 is set when column i is NULL
/// (a NULL column's word is 0). Two keys are equal exactly when their
/// words are, and the reference interpreter's Value-vector equality
/// coincides with that:
///  * int64, date and bool store their payload (a date truncated to its
///    int32 day number, a bool as 0 or 1, as GetValue boxes them);
///  * a double stores its bits after making -0.0 +0.0 and every NaN one
///    canonical NaN: Value::Compare calls ±0 equal and Value::Hash hashes
///    them alike, so the ±0 group decodes (and is emitted) as +0.0. NaNs
///    form one group; under Value::Compare a NaN is "equal" to every
///    number, which no hash grouping can reproduce;
///  * a string stores its code in the column's pinned dictionary (see
///    Make), or, when that dictionary does not hold it, kInternedString
///    plus its number in the partial's KeyStrings. Codes are non-negative
///    int32, so the two never collide, and each string has one word.
/// The one deliberate exception: two int64 keys beyond 2^53 that alias
/// under double promotion are distinct here but "equal" to Value::Compare
/// — the reference map's hash (exact std::hash<int64_t>) already disagrees
/// with its equality for such keys, so that regime has no well-defined
/// grouping to preserve.
class KeyEncoder {
 public:
  /// Tag of a string word that numbers a KeyStrings entry.
  static constexpr uint64_t kInternedString = uint64_t{1} << 63;

  /// `types[i]` is the logical type of the i-th key column. Never null.
  ///
  /// A string key column encodes through its dictionary where possible:
  /// the first batch encoded pins the column's dictionary (call_once, so
  /// concurrent pipeline workers agree). Each batch then checks once
  /// whether its column uses the pinned dictionary and, if so, copies the
  /// codes; a foreign or missing dictionary translates each string
  /// through the pinned one (StringDictionary::Find), interning only the
  /// strings it lacks.
  static std::unique_ptr<KeyEncoder> Make(
      const std::vector<LogicalType>& types);

  size_t num_cols() const { return types_.size(); }
  /// Words per key: one per column plus the null words.
  size_t width() const { return width_; }

  /// Encodes rows [0, n) of a batch: row r's key goes to
  /// words[r * width(), (r + 1) * width()) and its hash to hashes[r].
  /// cols[i] holds key column i (type types_[i]); when bases[i] is set,
  /// cols[i] instead holds row ids into bases[i] (a key that a deferred
  /// pi-hat streams as row ids), and the key is the base column's value
  /// at them. `bases` may be null when no key is deferred. Strings that no
  /// pinned dictionary codes are interned into `strings`. Dispatches on
  /// each key column's type once per batch. Thread-safe for distinct
  /// `strings`, `words` and `hashes`.
  void Encode(const storage::Column* const* cols,
              const storage::Column* const* bases, uint64_t n,
              KeyStrings* strings, uint64_t* words, uint64_t* hashes) const;

  /// The hash Encode writes for the key at `key`: the words chained
  /// through HashCombine in order, then avalanched, so that the low bits
  /// an open-addressing table masks depend on every word.
  uint64_t Hash(const uint64_t* key) const;

  /// Copies `key`, encoded against `from`, to `out`, renumbering its
  /// interned strings into `to` (by text). Returns whether any word
  /// changed (and with it the hash).
  bool Translate(const uint64_t* key, const KeyStrings& from, KeyStrings* to,
                 uint64_t* out) const;

  /// Appends key column i of the keys keys[g * width()] for every g in
  /// `groups` to `out` (type types_[i]): each value is what
  /// Column::GetValue boxed for the encoded row, except that a double key
  /// reads back canonical (see the class comment).
  void Decode(size_t i, const uint64_t* keys,
              const std::vector<uint32_t>& groups, const KeyStrings& strings,
              storage::Column* out) const;

 private:
  explicit KeyEncoder(std::vector<LogicalType> types);

  std::vector<LogicalType> types_;
  size_t width_;
  /// Per key column: the dictionary pinned by the first Encode of that
  /// column (nullptr until pinned, or when the column has none).
  /// Encoding is a pure function of (pinned dictionary, string,
  /// KeyStrings), so whichever worker pins first, every row of a partial
  /// encodes consistently.
  mutable std::vector<const storage::StringDictionary*> pinned_;
  mutable std::vector<std::unique_ptr<std::once_flag>> pin_once_;
};

/// Open-addressing (linear probing) table of group ids over fixed-width
/// key words (KeyEncoder): group g's key is the `width` words at key(g),
/// and ids are dense, in insertion order, so per-group state lives in
/// plain arrays indexed by id. A slot holds the high half of its group's
/// hash above group id + 1 (0 == empty), so most probes that miss never
/// touch the key words; the low half picks the slot. The table doubles
/// once it is half full.
class GroupTable {
 public:
  /// Slots of a new table.
  static constexpr size_t kFirstSlots = 64;

  explicit GroupTable(size_t width) : width_(width), slots_(kFirstSlots, 0) {}

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  const uint64_t* keys() const { return keys_.data(); }
  const uint64_t* key(uint32_t g) const {
    return keys_.data() + static_cast<size_t>(g) * width_;
  }
  uint64_t hash(uint32_t g) const { return hashes_[g]; }

  /// The id of the group keyed by the words at `key`; a key seen for the
  /// first time gets the next id and sets *inserted.
  uint32_t FindOrInsert(const uint64_t* key, uint64_t hash, bool* inserted) {
    const size_t mask = slots_.size() - 1;
    const uint64_t tag = hash & kTagMask;
    size_t i = hash & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if ((slots_[i] & kTagMask) != tag) continue;
      auto g = static_cast<uint32_t>(slots_[i] - 1);
      if (std::equal(key, key + width_, this->key(g))) {
        *inserted = false;
        return g;
      }
    }
    const uint32_t g = size();
    keys_.insert(keys_.end(), key, key + width_);
    hashes_.push_back(hash);
    if (2 * hashes_.size() > slots_.size()) {
      Grow();
    } else {
      slots_[i] = tag | (g + 1);
    }
    *inserted = true;
    return g;
  }

 private:
  static constexpr uint64_t kTagMask = ~uint64_t{0xffffffff};

  /// Doubles the slots and re-places every group from its stored hash.
  void Grow() {
    slots_.assign(2 * slots_.size(), 0);
    const size_t mask = slots_.size() - 1;
    for (uint32_t g = 0; g < size(); ++g) {
      size_t i = hashes_[g] & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = (hashes_[g] & kTagMask) | (g + 1);
    }
  }

  size_t width_;
  std::vector<uint64_t> slots_;  // size is a power of two
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> hashes_;
};

// ---------------------------------------------------------------------------
// Typed aggregate gathering
// ---------------------------------------------------------------------------

/// Typed view of one aggregate input column: replaces the per-row
/// `column.GetValue(r)` boxing in the GROUP BY update loops with payload
/// span reads. A Value is only constructed when a running MIN/MAX
/// actually improves. Works against any state struct with the engines'
/// AggState shape (`Value min, max; double sum; int64_t isum;`); the
/// caller bumps `count` itself (it is unconditional, nulls included).
///
/// Comparison semantics are exactly the boxed loop's: Value::Compare
/// promotes every numeric (int64, date, bool) through double, so the
/// min/max tests below compare doubles even for integer payloads, and a
/// NaN neither replaces nor is replaced once a double min/max is set.
class AggColumnView {
 public:
  AggColumnView() = default;

  explicit AggColumnView(const storage::Column* col)
      : type_(col->type()), valid_(col->validity_data()) {
    switch (type_) {
      case LogicalType::kInt64:
      case LogicalType::kBool:
      case LogicalType::kDate:
        ints_ = col->data_int64();
        break;
      case LogicalType::kDouble:
        doubles_ = col->data_double();
        break;
      case LogicalType::kString:
        strings_ = col->data_string();
        break;
      case LogicalType::kNull:
        break;  // every row reads as NULL — Update is a no-op
    }
  }

  template <typename AggState>
  void Update(uint64_t row, AggState* st) const {
    if (valid_ != nullptr && valid_[row] == 0) return;
    switch (type_) {
      case LogicalType::kInt64: {
        int64_t v = ints_[row];
        st->isum += v;
        double d = static_cast<double>(v);
        if (st->min.is_null() ||
            d < static_cast<double>(st->min.int_value())) {
          st->min = Value::Int(v);
        }
        if (st->max.is_null() ||
            static_cast<double>(st->max.int_value()) < d) {
          st->max = Value::Int(v);
        }
        break;
      }
      case LogicalType::kDate: {
        // Mirror GetValue's boxing: the stored payload is truncated to
        // the 32-bit day number before any comparison.
        auto v = static_cast<int32_t>(ints_[row]);
        double d = static_cast<double>(v);
        if (st->min.is_null() ||
            d < static_cast<double>(st->min.int_value())) {
          st->min = Value::Date(v);
        }
        if (st->max.is_null() ||
            static_cast<double>(st->max.int_value()) < d) {
          st->max = Value::Date(v);
        }
        break;
      }
      case LogicalType::kBool: {
        bool v = ints_[row] != 0;
        double d = v ? 1.0 : 0.0;
        if (st->min.is_null() || d < (st->min.bool_value() ? 1.0 : 0.0)) {
          st->min = Value::Bool(v);
        }
        if (st->max.is_null() || (st->max.bool_value() ? 1.0 : 0.0) < d) {
          st->max = Value::Bool(v);
        }
        break;
      }
      case LogicalType::kDouble: {
        double d = doubles_[row];
        st->sum += d;
        if (st->min.is_null() || d < st->min.double_value()) {
          st->min = Value::Double(d);
        }
        if (st->max.is_null() || st->max.double_value() < d) {
          st->max = Value::Double(d);
        }
        break;
      }
      case LogicalType::kString: {
        const std::string& s = strings_[row];
        if (st->min.is_null() || s.compare(st->min.string_value()) < 0) {
          st->min = Value::String(s);
        }
        if (st->max.is_null() || st->max.string_value().compare(s) < 0) {
          st->max = Value::String(s);
        }
        break;
      }
      case LogicalType::kNull:
        break;
    }
  }

 private:
  LogicalType type_ = LogicalType::kNull;
  const uint8_t* valid_ = nullptr;
  const int64_t* ints_ = nullptr;
  const double* doubles_ = nullptr;
  const std::string* strings_ = nullptr;
};

// ---------------------------------------------------------------------------
// Typed sort-key comparison
// ---------------------------------------------------------------------------

/// Calls `f(std::integral_constant<LogicalType, T>{})` for the T equal to
/// `type` and returns its result: one dispatch for a loop that then runs
/// a compile-time-typed kernel (TypedColumnCompareAs) on every row.
template <typename F>
decltype(auto) DispatchLogicalType(LogicalType type, F&& f) {
  using T = LogicalType;
  switch (type) {
    case T::kInt64:
      return f(std::integral_constant<T, T::kInt64>{});
    case T::kDate:
      return f(std::integral_constant<T, T::kDate>{});
    case T::kBool:
      return f(std::integral_constant<T, T::kBool>{});
    case T::kDouble:
      return f(std::integral_constant<T, T::kDouble>{});
    case T::kString:
      return f(std::integral_constant<T, T::kString>{});
    case T::kNull:
      break;
  }
  return f(std::integral_constant<T, T::kNull>{});
}

/// Sign of a byte-wise string compare. Kept out of line so that the code
/// compare of a sorted dictionary inlines into row loops.
int CompareStringPayloads(const std::string& a, const std::string& b);

/// TypedColumnCompare for columns of type T, fixed at compile time.
template <LogicalType T>
inline int TypedColumnCompareAs(const storage::Column& a, uint64_t ar,
                                const storage::Column& b, uint64_t br) {
  bool an = !a.is_valid(ar), bn = !b.is_valid(br);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  if constexpr (T == LogicalType::kString) {
    const storage::StringDictionary* d = a.dictionary();
    if (d != nullptr && d == b.dictionary() && d->sorted) {
      int32_t ac = a.code_at(ar), bc = b.code_at(br);
      return ac < bc ? -1 : (bc < ac ? 1 : 0);
    }
    return CompareStringPayloads(a.string_at(ar), b.string_at(br));
  } else if constexpr (T == LogicalType::kNull) {
    return 0;
  } else {
    double ad = 0.0, bd = 0.0;
    if constexpr (T == LogicalType::kInt64) {
      ad = static_cast<double>(a.int_at(ar));
      bd = static_cast<double>(b.int_at(br));
    } else if constexpr (T == LogicalType::kDate) {
      ad = static_cast<double>(static_cast<int32_t>(a.int_at(ar)));
      bd = static_cast<double>(static_cast<int32_t>(b.int_at(br)));
    } else if constexpr (T == LogicalType::kBool) {
      ad = a.int_at(ar) != 0 ? 1.0 : 0.0;
      bd = b.int_at(br) != 0 ? 1.0 : 0.0;
    } else {
      ad = a.double_at(ar);
      bd = b.double_at(br);
    }
    return ad < bd ? -1 : (bd < ad ? 1 : 0);
  }
}

/// Three-way typed twin of Value::Compare for two slots of columns that
/// share a LogicalType (the same schema position of two batches, or one
/// column against itself). Returns the sign of
/// `a.GetValue(ar).Compare(b.GetValue(br))` without boxing either side:
/// NULLs order first, numerics promote through double (so NaN is "equal"
/// to every double and never establishes an order), strings compare
/// lexicographically.
/// String fast path: when both slots share the same *sorted*
/// dictionary, code order coincides with lexicographic order, so one
/// int32 compare replaces the byte compare — sign-identical by
/// construction. Any other dictionary state falls back to the payload.
inline int TypedColumnCompare(const storage::Column& a, uint64_t ar,
                              const storage::Column& b, uint64_t br) {
  return DispatchLogicalType(a.type(), [&](auto type) {
    return TypedColumnCompareAs<decltype(type)::value>(a, ar, b, br);
  });
}

}  // namespace vector
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_VECTOR_TYPED_KEYS_H_
