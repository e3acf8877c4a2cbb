#ifndef EXPLAINTI_ANN_SHARDED_SEARCH_H_
#define EXPLAINTI_ANN_SHARDED_SEARCH_H_

#include <cstdint>
#include <vector>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/index.h"

namespace explainti::ann {

/// One searchable store segment as the fan-out sees it. `flat` is the
/// exact tier and is always present; `hnsw` is the fast tier, or null
/// when the segment was loaded from a flat-only segment file and serves
/// flat. Both point into the owning Segment, which the caller keeps
/// pinned for the duration of the query.
struct ShardRef {
  const FlatIndex* flat = nullptr;
  const HnswIndex* hnsw = nullptr;
};

/// Per-query degradation telemetry from one sharded search.
struct ShardedQueryStats {
  /// Shards whose answer came from the exact flat tier because they have
  /// no HNSW graph.
  int shards_degraded = 0;
  bool any_fallback() const { return shards_degraded > 0; }
};

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
/// Each shard answers from its own tier (HNSW, or exact flat when it has
/// no graph; see ShardRef), over-fetching k+1 so the excluded id cannot
/// displace a real hit. Shard queries run over util/thread_pool with
/// grain 1 — each shard's hits land in that shard's own slot, so the
/// merged result is bit-identical at any thread count. `query` is raw
/// (un-normalised) and must have exactly the shard dimensionality;
/// callers validate against their store's dim first.
///
/// Reuses thread-local scratch (per-shard SearchScratch + hit slots).
/// Once warm, a serial fan-out — one shard, or a 1-thread global pool —
/// performs zero heap allocations; a parallel fan-out pays only the
/// thread pool's dispatch envelope.
void ShardedSearchInto(const ShardRef* shards, int64_t num_shards,
                       const std::vector<float>& query, int k,
                       int64_t exclude_id, std::vector<SearchResult>* out,
                       ShardedQueryStats* stats);

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_SHARDED_SEARCH_H_
