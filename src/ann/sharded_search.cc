#include "ann/sharded_search.h"

#include <algorithm>
#include <cmath>

namespace explainti::ann {

void L2NormalizeInto(const float* in, int64_t n, float* out) {
  double norm_sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    norm_sq += static_cast<double>(in[i]) * in[i];
  }
  const float inv = norm_sq > 1e-24
                        ? static_cast<float>(1.0 / std::sqrt(norm_sq))
                        : 0.0f;
  for (int64_t i = 0; i < n; ++i) out[i] = in[i] * inv;
}

namespace {

// "a outranks b" under the merge's total order: higher similarity first,
// ties broken by ascending global id. A total order over distinct ids, so
// the global top-k is a set — not an artifact of merge order.
inline bool Outranks(const SearchResult& a, const SearchResult& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

// Cross-query scratch for one querying thread. Shards are searched one
// after another through the same SearchScratch (each search grows it to
// its segment and restamps the visited epoch), and each shard's hits keep
// their own slot for the merge; the buffers persist across queries so the
// steady state allocates nothing new.
struct FanoutScratch {
  std::vector<float> qnorm;
  std::vector<std::vector<SearchResult>> hits;
  SearchScratch search;
};

FanoutScratch& LocalScratch() {
  static thread_local FanoutScratch scratch;
  return scratch;
}

}  // namespace

void MergeTopK(const std::vector<SearchResult>* shard_hits,
               int64_t num_shards, int k, int64_t exclude_id,
               std::vector<SearchResult>* out) {
  out->clear();
  if (k <= 0) return;
  // Bounded max-heap ordered by Outranks: the front is the WORST kept hit
  // (everything else outranks it), so replacing the front evicts the
  // right element in O(log k).
  const auto heap_cmp = [](const SearchResult& a, const SearchResult& b) {
    return Outranks(a, b);
  };
  for (int64_t s = 0; s < num_shards; ++s) {
    for (const SearchResult& hit : shard_hits[s]) {
      if (hit.id == exclude_id) continue;
      if (static_cast<int>(out->size()) < k) {
        out->push_back(hit);
        std::push_heap(out->begin(), out->end(), heap_cmp);
      } else if (Outranks(hit, out->front())) {
        std::pop_heap(out->begin(), out->end(), heap_cmp);
        out->back() = hit;
        std::push_heap(out->begin(), out->end(), heap_cmp);
      }
    }
  }
  std::sort(out->begin(), out->end(), Outranks);
}

void ShardedSearchInto(const HnswIndex* const* shards, int64_t num_shards,
                       const std::vector<float>& query, int k,
                       int64_t exclude_id, std::vector<SearchResult>* out) {
  out->clear();
  if (num_shards <= 0 || k <= 0) return;

  FanoutScratch& s = LocalScratch();
  if (s.hits.size() < static_cast<size_t>(num_shards)) {
    s.hits.resize(static_cast<size_t>(num_shards));
  }
  const int64_t dim = shards[0]->dim();
  s.qnorm.resize(static_cast<size_t>(dim));
  L2NormalizeInto(query.data(), dim, s.qnorm.data());
  const float* qnorm = s.qnorm.data();

  // Over-fetch by one per shard so dropping exclude_id in the merge can
  // never cost a real hit.
  const int fetch = k + 1;
  for (int64_t i = 0; i < num_shards; ++i) {
    shards[i]->SearchNormalized(qnorm, fetch, &s.search,
                                &s.hits[static_cast<size_t>(i)]);
  }
  MergeTopK(s.hits.data(), num_shards, k, exclude_id, out);
}

}  // namespace explainti::ann
