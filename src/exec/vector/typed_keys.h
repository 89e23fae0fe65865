#ifndef RELGO_EXEC_VECTOR_TYPED_KEYS_H_
#define RELGO_EXEC_VECTOR_TYPED_KEYS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/value.h"
#include "storage/column.h"

namespace relgo {
namespace exec {
namespace vector {

// ---------------------------------------------------------------------------
// Encoded group keys
// ---------------------------------------------------------------------------

/// A group-by key encoded as a byte string read straight from column
/// payload spans: per key column one tag byte (0 = NULL, 1 = value)
/// followed by a fixed- or length-prefixed payload. Byte equality
/// coincides with the boxed GroupKey's Value-vector equality, so the
/// aggregate hash maps can key on these without constructing a Value per
/// row. The hash is chained from the typed common/hash.h overloads during
/// encoding — no second pass over the bytes.
struct EncodedGroupKey {
  std::string bytes;
  size_t hash = kHashSeed;

  bool operator==(const EncodedGroupKey& other) const {
    return bytes == other.bytes;
  }
};

struct EncodedGroupKeyHash {
  size_t operator()(const EncodedGroupKey& k) const { return k.hash; }
};

/// Encodes / decodes group keys for a fixed sequence of key column types.
///
/// Make() refuses (returns nullptr) when any key column is kDouble:
/// Value equality routes through Value::Compare, under which NaN compares
/// equal to every numeric and +0.0 == -0.0 — neither is representable as
/// byte equality. Callers must then keep the boxed GroupKey path. The
/// remaining types are exact, with one deliberate exception: two int64
/// keys beyond 2^53 that alias under double promotion are distinct here
/// but "equal" to Value::Compare — the boxed map's hash (exact
/// std::hash<int64_t>) already disagrees with its equality for such keys,
/// so that regime has no well-defined grouping to preserve.
class KeyEncoder {
 public:
  /// `types[i]` is the logical type of the i-th key column. Returns
  /// nullptr when some type cannot preserve Value equality byte-for-byte.
  ///
  /// A string key column encodes through its dictionary where possible:
  /// the first row encoded pins the column's dictionary (call_once, so
  /// concurrent pipeline workers agree), and every string present in
  /// the pinned dictionary encodes as a fixed 4-byte code under its own
  /// tag — constant-size bytes and an int32 hash instead of
  /// length-prefixed payload bytes. Strings outside the pinned
  /// dictionary (foreign batch, dropped encoding) keep the byte
  /// encoding; the two tag spaces are disjoint, so byte equality still
  /// coincides with string equality and Decode reconstructs the exact
  /// GetValue boxing either way.
  static std::unique_ptr<KeyEncoder> Make(
      const std::vector<LogicalType>& types);

  size_t num_cols() const { return types_.size(); }

  /// Encodes row `row` of the key columns `cols` (cols[i] must have type
  /// types_[i]) into `*key`, overwriting it. Thread-safe (const,
  /// stateless).
  void Encode(const storage::Column* const* cols, uint64_t row,
              EncodedGroupKey* key) const;

  /// Reconstructs the boxed key row; each Value matches what
  /// Column::GetValue would have produced for the encoded row.
  void Decode(const EncodedGroupKey& key, std::vector<Value>* out) const;

 private:
  explicit KeyEncoder(std::vector<LogicalType> types);

  std::vector<LogicalType> types_;
  /// Per key column: the dictionary pinned by the first Encode of that
  /// column (nullptr until pinned, or when the column has none).
  /// Encoding is a pure function of (pinned dictionary, string), so
  /// whichever worker pins first, every row encodes consistently.
  mutable std::vector<const storage::StringDictionary*> pinned_;
  mutable std::vector<std::unique_ptr<std::once_flag>> pin_once_;
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
  bool an = !a.is_valid(ar), bn = !b.is_valid(br);
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  if (a.type() == LogicalType::kString) {
    const storage::StringDictionary* d = a.dictionary();
    if (d != nullptr && d == b.dictionary() && d->sorted) {
      int32_t ac = a.code_at(ar), bc = b.code_at(br);
      return ac < bc ? -1 : (bc < ac ? 1 : 0);
    }
  }
  switch (a.type()) {
    case LogicalType::kInt64: {
      auto ad = static_cast<double>(a.int_at(ar));
      auto bd = static_cast<double>(b.int_at(br));
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kDate: {
      auto ad = static_cast<double>(static_cast<int32_t>(a.int_at(ar)));
      auto bd = static_cast<double>(static_cast<int32_t>(b.int_at(br)));
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kBool: {
      double ad = a.int_at(ar) != 0 ? 1.0 : 0.0;
      double bd = b.int_at(br) != 0 ? 1.0 : 0.0;
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kDouble: {
      double ad = a.double_at(ar), bd = b.double_at(br);
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kString: {
      int c = a.string_at(ar).compare(b.string_at(br));
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case LogicalType::kNull:
      return 0;
  }
  return 0;
}

/// Typed twin of `a.GetValue(ar).Compare(v)` where `v` was previously
/// boxed from the same schema position (so it is NULL or shares `a`'s
/// type). Lets the TopK heap fence test read the incoming batch through
/// spans while the retained heap rows stay boxed.
inline int TypedColumnValueCompare(const storage::Column& a, uint64_t ar,
                                   const Value& v) {
  bool an = !a.is_valid(ar), bn = v.is_null();
  if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
  switch (a.type()) {
    case LogicalType::kInt64: {
      auto ad = static_cast<double>(a.int_at(ar));
      auto bd = static_cast<double>(v.int_value());
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kDate: {
      auto ad = static_cast<double>(static_cast<int32_t>(a.int_at(ar)));
      auto bd = static_cast<double>(v.int_value());
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kBool: {
      double ad = a.int_at(ar) != 0 ? 1.0 : 0.0;
      double bd = v.bool_value() ? 1.0 : 0.0;
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kDouble: {
      double ad = a.double_at(ar), bd = v.double_value();
      return ad < bd ? -1 : (bd < ad ? 1 : 0);
    }
    case LogicalType::kString: {
      int c = a.string_at(ar).compare(v.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case LogicalType::kNull:
      return 0;
  }
  return 0;
}

}  // namespace vector
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_VECTOR_TYPED_KEYS_H_
