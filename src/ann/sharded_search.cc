#include "ann/sharded_search.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

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

// Cross-query scratch for one querying thread. Slot i belongs to shard i
// exclusively during the fan-out, so parallel shard queries never share
// state; the buffers persist across queries so the steady state allocates
// nothing new.
struct FanoutScratch {
  std::vector<float> qnorm;
  std::vector<std::vector<SearchResult>> hits;
  std::vector<uint8_t> degraded;
  std::vector<SearchScratch> search;
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

void ShardedSearchInto(const ShardRef* shards, int64_t num_shards,
                       const std::vector<float>& query, int k,
                       int64_t exclude_id, std::vector<SearchResult>* out,
                       ShardedQueryStats* stats) {
  *stats = ShardedQueryStats{};
  out->clear();
  if (num_shards <= 0 || k <= 0) return;

  FanoutScratch& s = LocalScratch();
  if (s.hits.size() < static_cast<size_t>(num_shards)) {
    s.hits.resize(static_cast<size_t>(num_shards));
    s.degraded.resize(static_cast<size_t>(num_shards));
    s.search.resize(static_cast<size_t>(num_shards));
  }
  const int64_t dim = shards[0].flat->dim();
  s.qnorm.resize(static_cast<size_t>(dim));
  L2NormalizeInto(query.data(), dim, s.qnorm.data());
  const float* qnorm = s.qnorm.data();

  // Over-fetch by one per shard so dropping exclude_id in the merge can
  // never cost a real hit.
  const int fetch = k + 1;
  const auto run_shards = [&](int64_t sb, int64_t se) {
    for (int64_t i = sb; i < se; ++i) {
      std::vector<SearchResult>& hits = s.hits[static_cast<size_t>(i)];
      SearchScratch& scratch = s.search[static_cast<size_t>(i)];
      const ShardRef& shard = shards[i];
      const bool degraded = shard.hnsw == nullptr;
      if (degraded) {
        shard.flat->SearchNormalized(qnorm, fetch, &scratch, &hits);
      } else {
        shard.hnsw->SearchNormalized(qnorm, fetch, &scratch, &hits);
      }
      s.degraded[static_cast<size_t>(i)] = degraded ? 1 : 0;
    }
  };
  // Serial fan-outs skip ParallelFor entirely: its std::function envelope
  // heap-allocates, and the single-shard/single-thread steady state is
  // gated at exactly zero allocations per query.
  if (num_shards == 1 || util::GlobalThreadPool().num_threads() == 1) {
    run_shards(0, num_shards);
  } else {
    util::ParallelFor(0, num_shards, 1, run_shards);
  }

  for (int64_t i = 0; i < num_shards; ++i) {
    if (s.degraded[static_cast<size_t>(i)] != 0) ++stats->shards_degraded;
  }
  MergeTopK(s.hits.data(), num_shards, k, exclude_id, out);
}

}  // namespace explainti::ann
