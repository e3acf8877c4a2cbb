#ifndef EXPLAINTI_ANN_INDEX_H_
#define EXPLAINTI_ANN_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace explainti::ann {

/// One nearest-neighbour hit: the id passed at Add() time and the cosine
/// similarity to the query (higher is closer).
struct SearchResult {
  int64_t id = -1;
  float similarity = 0.0f;
};

/// Reusable per-thread state for the segment-local search entry points
/// (`FlatIndex::SearchNormalized`, `HnswIndex::SearchNormalized`; an
/// HnswIndex also keeps one for its own inserts). One scratch per
/// (thread, segment-slot); after the first query over a segment, repeated
/// searches through the same scratch perform no heap allocations. The
/// fields are an implementation detail of the indexes — callers only
/// default-construct and pass the struct back in.
struct SearchScratch {
  std::vector<SearchResult> scores;           // Flat: one slot per row.
  std::vector<uint32_t> visited;              // HNSW: epoch-stamped marks.
  uint32_t epoch = 0;
  std::vector<std::pair<float, int>> frontier;  // HNSW: min-heap by distance.
  std::vector<std::pair<float, int>> beam;      // HNSW: max-heap by distance.
  std::vector<int> fresh;                       // HNSW: unvisited neighbours.
  std::vector<float> fresh_dist;
};

/// L2-normalises `in[0..n)` into `out` (all-zero input stays all-zero).
/// The shared definition both index types build on: normalising at insert
/// time turns cosine similarity into a plain dot product on the hot path,
/// and a single implementation keeps stored bits identical across tiers.
void L2NormalizeInto(const float* in, int64_t n, float* out);

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_INDEX_H_
