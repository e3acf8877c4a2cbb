#ifndef EXPLAINTI_UTIL_HASH_H_
#define EXPLAINTI_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace explainti::util {

/// 64-bit FNV-1a offset basis / prime. FNV-1a is the content-hash used
/// for serving-cache keys: stable across runs and platforms (unlike
/// std::hash), cheap enough to run per request, and good enough mixing
/// for bucketing — it is NOT a cryptographic hash.
inline constexpr uint64_t kFnv64OffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnv64Prime = 0x100000001b3ULL;

/// FNV-1a over `data[0..n)`, continuing from `seed` (pass the previous
/// return value to extend a running hash; start from kFnv64OffsetBasis).
inline uint64_t HashBytes(const void* data, size_t n,
                          uint64_t seed = kFnv64OffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint64_t>(bytes[i]);
    h *= kFnv64Prime;
  }
  return h;
}

/// Seed of the bag-of-words token featurisers. This is the 64-bit FNV
/// offset basis with its last decimal digit dropped — a long-fossilised
/// typo from the first hand-rolled copy of the hasher. It is pinned
/// deliberately: feature extractors bucket tokens by `hash % dim`, so
/// "fixing" the constant would silently remap every hashed feature and
/// invalidate anything trained on them. tests/util_test.cc pins concrete
/// hash values against accidental drift.
inline constexpr uint64_t kFnvLegacyTokenBasis = 1469598103934665603ULL;

/// FNV-1a of `token` seeded with the pinned legacy basis — the one shared
/// implementation behind the bag-of-words featurisers
/// (baselines/column_features, eval/sufficiency), which previously each
/// carried their own copy.
inline uint64_t HashTokenFeature(const std::string& token) {
  return HashBytes(token.data(), token.size(), kFnvLegacyTokenBasis);
}

/// Hashes a run of ints (e.g. a serialised token-id sequence),
/// length-prefixed so that ({1}, {2}) and ({1, 2}, {}) hash differently
/// when chained.
inline uint64_t HashInts(std::span<const int> values,
                         uint64_t seed = kFnv64OffsetBasis) {
  const uint64_t n = static_cast<uint64_t>(values.size());
  uint64_t h = HashBytes(&n, sizeof(n), seed);
  if (!values.empty()) {
    h = HashBytes(values.data(), values.size() * sizeof(int), h);
  }
  return h;
}

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_HASH_H_
