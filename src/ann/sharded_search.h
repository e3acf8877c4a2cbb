#ifndef EXPLAINTI_ANN_SHARDED_SEARCH_H_
#define EXPLAINTI_ANN_SHARDED_SEARCH_H_

#include <cstdint>
#include <vector>

#include "ann/hnsw_index.h"
#include "ann/index.h"

namespace explainti::ann {

/// Merges per-shard candidate lists into the global top-k using a bounded
/// heap (never more than k live entries), dropping `exclude_id`. The kept
/// set and its order follow the total order (similarity desc, id asc), so
/// the output is a pure function of the input sets — independent of shard
/// iteration order and thread count. Exposed separately for tests.
void MergeTopK(const std::vector<SearchResult>* shard_hits,
               int64_t num_shards, int k, int64_t exclude_id,
               std::vector<SearchResult>* out);

/// Fans one top-k query across `shards` and merges the per-shard answers.
///
/// Each shard is one store segment's HNSW graph, which the caller keeps
/// pinned for the duration of the query. Every shard over-fetches k+1 so
/// the excluded id cannot displace a real hit. Shards are searched in
/// order on the calling thread, each into its own hit slot, and the merge
/// is order-independent, so the result is bit-identical at any thread
/// count. `query` is raw (un-normalised) and must have exactly the shard
/// dimensionality; callers validate against their store's dim first.
///
/// Reuses thread-local scratch (one SearchScratch + per-shard hit slots).
/// Once warm, a query performs zero heap allocations at any pool size.
void ShardedSearchInto(const HnswIndex* const* shards, int64_t num_shards,
                       const std::vector<float>& query, int k,
                       int64_t exclude_id, std::vector<SearchResult>* out);

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_SHARDED_SEARCH_H_
