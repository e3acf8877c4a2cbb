#ifndef EXPLAINTI_ANN_FLAT_INDEX_H_
#define EXPLAINTI_ANN_FLAT_INDEX_H_

#include <cstdint>
#include <vector>

#include "ann/index.h"

namespace explainti::ann {

/// Exact brute-force index; O(N·d) per query.
///
/// The reference implementation the HNSW tests measure recall against,
/// and SelfExplain's global-concept store. `Add()` copies and
/// L2-normalises each vector.
class FlatIndex {
 public:
  FlatIndex() = default;

  /// Inserts `vector` under `id`. Ids must be unique.
  void Add(int64_t id, const std::vector<float>& vector);

  /// Top-k most-similar stored vectors, most similar first, ties broken
  /// by ascending id. Returns fewer than k when the index holds fewer.
  std::vector<SearchResult> Search(const std::vector<float>& query,
                                   int k) const;
  int64_t size() const { return static_cast<int64_t>(ids_.size()); }

 private:
  int64_t dim_ = 0;
  std::vector<int64_t> ids_;
  std::vector<float> vectors_;  // Row-major, L2-normalised.
};

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_FLAT_INDEX_H_
