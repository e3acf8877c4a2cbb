#include "serve/cache.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::serve {

ResponseCache::ResponseCache(const CacheOptions& options)
    : capacity_(options.capacity),
      // Clamp shards to capacity (a shard below one entry is useless) and
      // spread the remainder so the shard capacities sum exactly to the
      // configured capacity — the cache never holds more than capacity()
      // and never silently rounds it down.
      num_shards_(static_cast<int>(std::max<int64_t>(
          1, std::min<int64_t>(options.num_shards, options.capacity)))) {
  CHECK(options.capacity >= 1) << "cache capacity must be >= 1";
  shards_.reserve(static_cast<size_t>(num_shards_));
  const int64_t base = capacity_ / num_shards_;
  const int64_t remainder = capacity_ % num_shards_;
  for (int i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

ResponseCache::Shard& ResponseCache::ShardFor(const Key& key) {
  return *shards_[static_cast<size_t>(KeyHash{}(key)) %
                  static_cast<size_t>(num_shards_)];
}

bool ResponseCache::Lookup(const Key& key, const text::EncodedSequence& input,
                           const qa::QaQuery* query, ServeResponse* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  // The stored input must match exactly: the 64-bit key hash is not
  // collision-proof (FNV-1a, craftable), and entries are shared across
  // tenants, so a hash match alone must never select a payload. A
  // collision degrades to a miss (recomputation), never wrong data.
  if (it == shard.index.end() || it->second->second.input_ids != input.ids ||
      it->second->second.input_segments != input.segments) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // QA entries additionally verify the stored query: the verified input
  // covers only the primary candidate's sequence, so two queries over the
  // same table (different candidate sets, target label, or top_k) must
  // compare the query itself before an answer is shared.
  if (key.method == ServeMethod::kQaAnswer &&
      (query == nullptr || !it->second->second.has_query ||
       !qa::SameQuery(it->second->second.qa_query, *query))) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // Promote.
  const Payload& payload = it->second->second;
  out->labels = payload.labels;
  out->probabilities = payload.probabilities;
  out->explanation = payload.explanation;
  out->qa = payload.qa;
  out->model_generation = payload.model_generation;
  out->cache_hit = true;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ResponseCache::Insert(const Key& key, const text::EncodedSequence& input,
                           const qa::QaQuery* query,
                           const ServeResponse& response) {
  CHECK(response.status.ok()) << "only OK responses are cacheable";
  CHECK(key.method != ServeMethod::kQaAnswer || query != nullptr)
      << "QA cache entries require the answered query";
  Payload payload;
  payload.input_ids = input.ids;
  payload.input_segments = input.segments;
  payload.labels = response.labels;
  payload.probabilities = response.probabilities;
  payload.explanation = response.explanation;
  payload.qa = response.qa;
  if (query != nullptr) {
    payload.qa_query = *query;
    payload.has_query = true;
  }
  payload.model_generation = response.model_generation;

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Refresh recency. On a hash collision the newer content takes the
    // slot; the loser's requests verify-miss and recompute.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    it->second->second = std::move(payload);
    return;
  }
  shard.lru.emplace_front(key, std::move(payload));
  shard.index.emplace(key, shard.lru.begin());
  if (static_cast<int64_t>(shard.lru.size()) > shard.capacity) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ResponseCache::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

int64_t ResponseCache::size() const {
  int64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += static_cast<int64_t>(shard->lru.size());
  }
  return total;
}

}  // namespace explainti::serve
