#ifndef EXPLAINTI_ANN_FLAT_INDEX_H_
#define EXPLAINTI_ANN_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

#include "ann/index.h"

namespace explainti::ann {

/// Exact brute-force index; O(N·d) per query.
///
/// The reference implementation the HNSW tests measure recall against, the
/// degradation tier of the embedding store, and a sensible choice for
/// small stores. Two storage modes:
///  - Owned: `Add()` copies and L2-normalises each vector (the historical
///    behaviour).
///  - Attached: `AttachStorage()` rebinds the index to externally owned,
///    already-normalised rows — this is how store segments share one
///    payload (possibly an mmap'd file) between the flat tier, the HNSW
///    tier, and raw-embedding reads without copying it three times.
class FlatIndex {
 public:
  FlatIndex() = default;

  /// Inserts `vector` under `id` (owned mode). Ids must be unique.
  void Add(int64_t id, const std::vector<float>& vector);

  /// Top-k most-similar stored vectors, most similar first, ties broken
  /// by ascending id. Returns fewer than k when the index holds fewer.
  std::vector<SearchResult> Search(const std::vector<float>& query,
                                   int k) const;
  int64_t size() const { return count_; }
  int64_t dim() const { return dim_; }

  /// Rebinds the index to `count` rows of externally owned storage:
  /// `vectors` is row-major `count x dim` and already L2-normalised,
  /// `ids[i]` names row i. The caller keeps both alive for the index's
  /// lifetime; previously Add()ed rows are discarded. Passing count == 0
  /// resets to an empty index.
  void AttachStorage(const int64_t* ids, const float* vectors, int64_t count,
                     int64_t dim);

  /// Segment-local search: `query` is an already L2-normalised vector of
  /// exactly dim() floats. Fills `*out` (cleared first) with the top-k
  /// rows, most similar first, ties broken by ascending id — bit-identical
  /// to Search() on the same index. Reuses `*scratch`; after the first
  /// call at a given store size, performs no heap allocations.
  void SearchNormalized(const float* query, int k, SearchScratch* scratch,
                        std::vector<SearchResult>* out) const;

 private:
  int64_t dim_ = 0;
  int64_t count_ = 0;
  const int64_t* ids_ = nullptr;     // = owned_ids_.data() in owned mode.
  const float* vectors_ = nullptr;   // Row-major, L2-normalised.
  std::vector<int64_t> owned_ids_;
  std::vector<float> owned_vectors_;
};

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_FLAT_INDEX_H_
