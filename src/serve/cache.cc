#include "serve/cache.h"

#include "util/hash.h"
#include "util/logging.h"

namespace explainti::serve {

uint64_t CacheInputHash(const ServeRequest& request,
                        const core::TaskData& task) {
  uint64_t hash = util::kFnv64OffsetBasis;
  if (request.method == ServeMethod::kQaAnswer) {
    const int params[] = {static_cast<int>(request.qa.kind),
                          request.qa.label_id, request.qa.top_k};
    hash = util::HashInts(params);
  }
  for (int id : SampleIdsOf(request)) {
    const text::EncodedSequence& seq =
        task.samples[static_cast<size_t>(id)].seq;
    hash = util::HashInts(seq.ids, hash);
    hash = util::HashInts(seq.segments, hash);
  }
  return hash;
}

ResponseCache::ResponseCache(const CacheOptions& options)
    : capacity_(options.capacity) {
  CHECK(options.capacity >= 1) << "cache capacity must be >= 1";
}

bool ResponseCache::Lookup(const Key& key, const text::EncodedSequence& input,
                           const qa::QaQuery* query, ServeResponse* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  // The stored input must match exactly: the 64-bit key hash is not
  // collision-proof (FNV-1a, craftable), and entries are shared across
  // tenants, so a hash match alone must never select a payload. A
  // collision degrades to a miss (recomputation), never wrong data.
  if (it == index_.end() || it->second->second.input_ids != input.ids ||
      it->second->second.input_segments != input.segments) {
    return false;
  }
  // QA entries additionally verify the stored query: the verified input
  // covers only the primary candidate's sequence, so two queries over the
  // same table (different candidate sets, target label, or top_k) must
  // compare the query itself before an answer is shared.
  if (key.method == ServeMethod::kQaAnswer &&
      (query == nullptr || !it->second->second.has_query ||
       !qa::SameQuery(it->second->second.qa_query, *query))) {
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // Promote.
  const Payload& payload = it->second->second;
  out->labels = payload.labels;
  out->probabilities = payload.probabilities;
  out->explanation = payload.explanation;
  out->qa = payload.qa;
  out->model_generation = payload.model_generation;
  out->cache_hit = true;
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

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh recency. On a hash collision the newer content takes the
    // slot; the loser's requests verify-miss and recompute.
    lru_.splice(lru_.begin(), lru_, it->second);
    it->second->second = std::move(payload);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  index_.emplace(key, lru_.begin());
  if (static_cast<int64_t>(lru_.size()) > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void ResponseCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

int64_t ResponseCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

}  // namespace explainti::serve
