#include "ann/flat_index.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::ann {

void FlatIndex::Add(int64_t id, const std::vector<float>& vector) {
  if (dim_ == 0) dim_ = static_cast<int64_t>(vector.size());
  CHECK_EQ(static_cast<int64_t>(vector.size()), dim_)
      << "FlatIndex dimension mismatch";
  ids_.push_back(id);
  const size_t offset = vectors_.size();
  vectors_.resize(offset + vector.size());
  L2NormalizeInto(vector.data(), dim_, vectors_.data() + offset);
}

std::vector<SearchResult> FlatIndex::Search(const std::vector<float>& query,
                                            int k) const {
  if (ids_.empty() || k <= 0) return {};
  if (static_cast<int64_t>(query.size()) != dim_) {
    // A malformed query degrades to "no neighbours" rather than aborting
    // the process; an empty result is a valid answer for every caller.
    LOG(WARNING) << "FlatIndex: query dim " << query.size()
                 << " != index dim " << dim_ << "; returning no results";
    return {};
  }
  std::vector<float> q(query.size());
  L2NormalizeInto(query.data(), dim_, q.data());

  std::vector<SearchResult> scores(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    const float* row = vectors_.data() + static_cast<int64_t>(i) * dim_;
    float dot = 0.0f;
    for (int64_t j = 0; j < dim_; ++j) dot += row[j] * q[j];
    scores[i] = SearchResult{ids_[i], dot};
  }

  const size_t take =
      std::min<size_t>(static_cast<size_t>(k), scores.size());
  std::partial_sort(scores.begin(), scores.begin() + take, scores.end(),
                    [](const SearchResult& a, const SearchResult& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.id < b.id;
                    });
  scores.resize(take);
  return scores;
}

}  // namespace explainti::ann
