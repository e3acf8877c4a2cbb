#ifndef EXPLAINTI_SERVE_CACHE_H_
#define EXPLAINTI_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/request.h"
#include "text/serializer.h"

namespace explainti::serve {

/// Tuning knobs for the serving response cache. Disabled by default: the
/// cache changes observable serving behaviour (hits bypass the queue and
/// the completed/batch counters), so callers opt in explicitly.
struct CacheOptions {
  bool enabled = false;
  /// Total cached entries across all shards; at capacity each shard
  /// evicts its own least-recently-used entry.
  int64_t capacity = 1024;
  /// Independently locked shards. Lookups hash the key to one shard, so
  /// concurrent workers on different keys rarely contend. Clamped to
  /// `capacity` so the shard capacities always sum exactly to it.
  int num_shards = 8;
};

/// Bounded, lock-sharded LRU cache of fully-computed serve responses,
/// keyed on (method, task, input-hash).
///
/// Keying on the *content hash* of the serialised input (util::HashInts
/// over the sample's token ids + segments) rather than the sample id
/// means repeated tables dedupe even when clients address them through
/// different sample ids, and an id remapped to different content never
/// serves stale data.
///
/// The 64-bit FNV-1a key hash is non-cryptographic and shared across
/// tenants, so a hash alone must never select a payload: every entry
/// also stores the exact serialised input (ids + segments) it was
/// computed from, and Lookup compares it against the caller's input,
/// treating any mismatch — a collision, crafted or accidental — as a
/// miss. A colliding entry can therefore cost a recomputation, never a
/// wrong (or another tenant's) payload.
///
/// Values are the full response payloads — for kExplain the entire
/// core::Explanation struct, including the ANN-degradation flag and note
/// as computed at insert time — copied out bit-identically on every hit.
/// Hits therefore reproduce exactly what the uncached call returned when
/// the entry was inserted; the serving layer clears the cache on model
/// hot-swap (see InferenceServer::SwapSession) so no entry outlives the
/// generation that computed it.
class ResponseCache {
 public:
  /// One cache key. `method`/`task` are part of the key because the same
  /// input produces different payloads per entry point.
  struct Key {
    ServeMethod method = ServeMethod::kPredict;
    core::TaskKind task = core::TaskKind::kType;
    uint64_t input_hash = 0;
    bool operator==(const Key& other) const {
      return method == other.method && task == other.task &&
             input_hash == other.input_hash;
    }
  };

  explicit ResponseCache(const CacheOptions& options);

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// On a hit, copies the cached payload (labels / probabilities /
  /// explanation / qa answer + model_generation) into `*out`, marks it
  /// cache_hit, promotes the entry to most-recently-used, and returns
  /// true. A hit requires the stored input to equal `input` (ids +
  /// segments) exactly; a key whose hash matches but whose content
  /// differs — a collision — reports a miss. For kQaAnswer entries the
  /// stored query must also equal `*query` (kind, candidates, label,
  /// top_k): the key folds the query into input_hash, but a 64-bit hash
  /// alone never selects a payload, and the verified input covers only
  /// the primary candidate — so a QA entry can never answer a different
  /// query, nor collide with an Explain entry for the same table (the
  /// method is part of the key AND a QA lookup without a stored query is
  /// a miss). Also returns false on a plain miss, leaving `*out`
  /// untouched.
  bool Lookup(const Key& key, const text::EncodedSequence& input,
              ServeResponse* out) {
    return Lookup(key, input, /*query=*/nullptr, out);
  }
  bool Lookup(const Key& key, const text::EncodedSequence& input,
              const qa::QaQuery* query, ServeResponse* out);

  /// Inserts (or refreshes) the payload of `response` under `key`,
  /// storing `input` for hit-time verification and evicting the shard's
  /// LRU entry at capacity. `key.input_hash` must be the hash of `input`
  /// (plus the query, for kQaAnswer). Pass the request's query for QA
  /// entries; it is stored for hit-time verification. Only OK responses
  /// are cacheable; callers must not insert rejected/shed responses.
  void Insert(const Key& key, const text::EncodedSequence& input,
              const ServeResponse& response) {
    Insert(key, input, /*query=*/nullptr, response);
  }
  void Insert(const Key& key, const text::EncodedSequence& input,
              const qa::QaQuery* query, const ServeResponse& response);

  /// Drops every entry (model hot-swap invalidation). Hit/miss/eviction
  /// counters survive — they describe the cache's lifetime, not one
  /// generation's.
  void Clear();

  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Current cached entries across all shards.
  int64_t size() const;
  int64_t capacity() const { return capacity_; }

 private:
  /// The cached payload: exactly the response fields a hit must
  /// reproduce, plus the serialised input it was computed from (compared
  /// on Lookup so a 64-bit hash collision can never serve it for
  /// different content). Telemetry fields (queue_wait, batch_size) are
  /// not cached — a hit reports its own (zero-queue) telemetry.
  struct Payload {
    std::vector<int> input_ids;
    std::vector<int> input_segments;
    std::vector<int> labels;
    std::vector<float> probabilities;
    core::Explanation explanation;
    /// kQaAnswer entries: the full composed answer, plus the query it
    /// answered (compared with SameQuery on Lookup) and a flag marking
    /// that a query was stored at all — an entry inserted without one can
    /// never satisfy a QA lookup.
    qa::QaAnswer qa;
    qa::QaQuery qa_query;
    bool has_query = false;
    uint64_t model_generation = 0;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // input_hash is already well-mixed (FNV-1a); fold in the enums.
      return static_cast<size_t>(key.input_hash ^
                                 (static_cast<uint64_t>(key.method) << 62) ^
                                 (static_cast<uint64_t>(key.task) << 60));
    }
  };
  struct Shard {
    std::mutex mu;
    /// This shard's entry bound; shard capacities sum to capacity_.
    int64_t capacity = 0;
    /// Most-recently-used at the front.
    std::list<std::pair<Key, Payload>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, Payload>>::iterator,
                       KeyHash>
        index;
  };

  Shard& ShardFor(const Key& key);

  const int64_t capacity_;
  const int num_shards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_CACHE_H_
