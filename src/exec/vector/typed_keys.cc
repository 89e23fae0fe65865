#include "exec/vector/typed_keys.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

namespace relgo {
namespace exec {
namespace vector {

namespace {

/// SplitMix64's finalizer: every output bit depends on every input bit.
uint64_t Avalanche(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t CanonicalDoubleBits(double v) {
  // One group for ±0 and one for every NaN (see KeyEncoder).
  if (v == 0.0) v = 0.0;
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Writes key column `col` of rows [0, n) and chains it into their
/// hashes. Row r reads physical row rids[r] of `src` when kDeferred, row r
/// otherwise; `word_of` maps a valid physical row to its word. The first
/// column of each null word (col % 64 == 0) initializes that word.
template <bool kDeferred, typename WordOf>
void EncodeWords(const storage::Column& src, const int64_t* rids, uint64_t n,
                 size_t col, size_t num_cols, size_t width, WordOf word_of,
                 uint64_t* words, uint64_t* hashes) {
  const uint8_t* valid = src.validity_data();
  const size_t null_word = num_cols + col / 64 - col;  // relative to `out`
  const uint64_t null_bit = uint64_t{1} << (col % 64);
  const bool first = col % 64 == 0;
  uint64_t* out = words + col;
  for (uint64_t r = 0; r < n; ++r, out += width) {
    uint64_t p = kDeferred ? static_cast<uint64_t>(rids[r]) : r;
    bool is_null = valid != nullptr && valid[p] == 0;
    uint64_t w = is_null ? 0 : word_of(p);
    uint64_t bit = is_null ? null_bit : 0;
    out[null_word] = first ? bit : out[null_word] | bit;
    *out = w;
    hashes[r] = HashCombine(hashes[r], w);
  }
}

}  // namespace

uint32_t KeyStrings::Intern(const std::string& s) {
  auto [it, added] =
      ids_.try_emplace(s, static_cast<uint32_t>(by_id_.size()));
  if (added) by_id_.push_back(&it->first);
  return it->second;
}

KeyEncoder::KeyEncoder(std::vector<LogicalType> types)
    : types_(std::move(types)),
      width_(types_.size() + (types_.size() + 63) / 64) {
  pinned_.assign(types_.size(), nullptr);
  pin_once_.resize(types_.size());
  for (size_t i = 0; i < types_.size(); ++i) {
    if (types_[i] == LogicalType::kString) {
      pin_once_[i] = std::make_unique<std::once_flag>();
    }
  }
}

std::unique_ptr<KeyEncoder> KeyEncoder::Make(
    const std::vector<LogicalType>& types) {
  return std::unique_ptr<KeyEncoder>(new KeyEncoder(types));
}

void KeyEncoder::Encode(const storage::Column* const* cols,
                        const storage::Column* const* bases, uint64_t n,
                        KeyStrings* strings, uint64_t* words,
                        uint64_t* hashes) const {
  const size_t num_cols = types_.size();
  std::fill(hashes, hashes + n, kHashSeed);
  for (size_t i = 0; i < num_cols; ++i) {
    const storage::Column* base = bases != nullptr ? bases[i] : nullptr;
    const storage::Column& src = base != nullptr ? *base : *cols[i];
    const int64_t* rids = base != nullptr ? cols[i]->data_int64() : nullptr;
    auto run = [&](auto word_of) {
      if (rids != nullptr) {
        EncodeWords<true>(src, rids, n, i, num_cols, width_, word_of, words,
                          hashes);
      } else {
        EncodeWords<false>(src, rids, n, i, num_cols, width_, word_of,
                           words, hashes);
      }
    };
    switch (types_[i]) {
      case LogicalType::kInt64: {
        const int64_t* v = src.data_int64();
        run([v](uint64_t p) { return static_cast<uint64_t>(v[p]); });
        break;
      }
      case LogicalType::kDate: {
        // Mirror GetValue's boxing: truncate to the 32-bit day number.
        const int64_t* v = src.data_int64();
        run([v](uint64_t p) {
          return static_cast<uint64_t>(
              static_cast<int64_t>(static_cast<int32_t>(v[p])));
        });
        break;
      }
      case LogicalType::kBool: {
        const int64_t* v = src.data_int64();
        run([v](uint64_t p) { return uint64_t{v[p] != 0}; });
        break;
      }
      case LogicalType::kDouble: {
        const double* v = src.data_double();
        run([v](uint64_t p) { return CanonicalDoubleBits(v[p]); });
        break;
      }
      case LogicalType::kString: {
        std::call_once(*pin_once_[i], [&] { pinned_[i] = src.dictionary(); });
        const storage::StringDictionary* dict = pinned_[i];
        if (dict != nullptr && src.dictionary() == dict) {
          const int32_t* codes = src.data_codes();
          run([codes](uint64_t p) { return static_cast<uint64_t>(codes[p]); });
          break;
        }
        // Foreign or no dictionary: translate through the pinned one and
        // intern what it lacks.
        const std::string* v = src.data_string();
        run([v, dict, strings](uint64_t p) {
          int32_t code = dict != nullptr ? dict->Find(v[p]) : -1;
          return code >= 0 ? static_cast<uint64_t>(code)
                           : kInternedString | strings->Intern(v[p]);
        });
        break;
      }
      case LogicalType::kNull: {
        // Every row is NULL.
        const size_t null_word = num_cols + i / 64;
        const uint64_t null_bit = uint64_t{1} << (i % 64);
        for (uint64_t r = 0; r < n; ++r) {
          uint64_t* key = words + r * width_;
          key[i] = 0;
          key[null_word] = i % 64 == 0 ? null_bit : key[null_word] | null_bit;
          hashes[r] = HashCombine(hashes[r], 0);
        }
        break;
      }
    }
  }
  for (uint64_t r = 0; r < n; ++r) {
    uint64_t h = hashes[r];
    for (size_t k = num_cols; k < width_; ++k) {
      h = HashCombine(h, words[r * width_ + k]);
    }
    hashes[r] = Avalanche(h);
  }
}

uint64_t KeyEncoder::Hash(const uint64_t* key) const {
  uint64_t h = kHashSeed;
  for (size_t k = 0; k < width_; ++k) h = HashCombine(h, key[k]);
  return Avalanche(h);
}

bool KeyEncoder::Translate(const uint64_t* key, const KeyStrings& from,
                           KeyStrings* to, uint64_t* out) const {
  std::copy(key, key + width_, out);
  bool changed = false;
  for (size_t i = 0; i < types_.size(); ++i) {
    bool is_null = (key[types_.size() + i / 64] >> (i % 64)) & 1;
    if (types_[i] != LogicalType::kString || is_null ||
        (key[i] & kInternedString) == 0) {
      continue;
    }
    out[i] = kInternedString |
             to->Intern(from.at(static_cast<uint32_t>(key[i])));
    changed |= out[i] != key[i];
  }
  return changed;
}

void KeyEncoder::Decode(size_t i, const uint64_t* keys,
                        const std::vector<uint32_t>& groups,
                        const KeyStrings& strings,
                        storage::Column* out) const {
  const size_t null_word = types_.size() + i / 64;
  const uint64_t null_bit = uint64_t{1} << (i % 64);
  out->Reserve(out->size() + groups.size());
  auto each = [&](auto append) {
    for (uint32_t g : groups) {
      const uint64_t* key = keys + static_cast<size_t>(g) * width_;
      if ((key[null_word] & null_bit) != 0) {
        out->AppendNull();
      } else {
        append(key[i]);
      }
    }
  };
  switch (types_[i]) {
    case LogicalType::kInt64:
    case LogicalType::kDate:
    case LogicalType::kBool:
      each([out](uint64_t w) { out->AppendInt(static_cast<int64_t>(w)); });
      break;
    case LogicalType::kDouble:
      each([out](uint64_t w) {
        double v = 0.0;
        std::memcpy(&v, &w, sizeof(v));
        out->AppendDouble(v);
      });
      break;
    case LogicalType::kString: {
      const storage::StringDictionary* dict = pinned_[i];
      each([&](uint64_t w) {
        out->AppendString((w & kInternedString) != 0
                              ? strings.at(static_cast<uint32_t>(w))
                              : dict->values[w]);
      });
      break;
    }
    case LogicalType::kNull:
      for (size_t g = 0; g < groups.size(); ++g) out->AppendNull();
      break;
  }
}

int CompareStringPayloads(const std::string& a, const std::string& b) {
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

}  // namespace vector
}  // namespace exec
}  // namespace relgo
