#ifndef RELGO_COMMON_HASH_H_
#define RELGO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace relgo {

/// Seed of every composite-key hash chain (the FNV-1a offset basis). The
/// typed key-extraction paths and the boxed Value paths must start their
/// chains from the same seed so both land keys in the same buckets.
constexpr size_t kHashSeed = 0xcbf29ce484222325ULL;

/// Mixes `v` into seed `h` (boost::hash_combine variant with 64-bit avalanche).
inline size_t HashCombine(size_t h, size_t v) {
  v *= 0xff51afd7ed558ccdULL;
  v ^= v >> 33;
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Hashes a sequence of 64-bit keys; used for composite join keys.
inline size_t HashSpan(const uint64_t* data, size_t n) {
  size_t h = kHashSeed;
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, data[i]);
  return h;
}

/// Typed twin of Value::Hash for a string payload: a string key hashed
/// from a raw column span (JoinHashTable) hashes as its boxed Value does.
inline size_t TypedHash(const std::string& v) {
  return std::hash<std::string>()(v);
}

/// std::hash implementation for vectors of integral ids.
struct U64VecHash {
  size_t operator()(const std::vector<uint64_t>& v) const {
    return HashSpan(v.data(), v.size());
  }
};

struct PairHash {
  template <typename A, typename B>
  size_t operator()(const std::pair<A, B>& p) const {
    return HashCombine(std::hash<A>()(p.first), std::hash<B>()(p.second));
  }
};

}  // namespace relgo

#endif  // RELGO_COMMON_HASH_H_
