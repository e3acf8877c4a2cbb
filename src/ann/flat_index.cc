#include "ann/flat_index.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::ann {

void FlatIndex::Add(int64_t id, const std::vector<float>& vector) {
  CHECK(owned_ids_.size() == static_cast<size_t>(count_))
      << "FlatIndex::Add on an index attached to external storage";
  if (dim_ == 0) dim_ = static_cast<int64_t>(vector.size());
  CHECK_EQ(static_cast<int64_t>(vector.size()), dim_)
      << "FlatIndex dimension mismatch";
  owned_ids_.push_back(id);
  const size_t offset = owned_vectors_.size();
  owned_vectors_.resize(offset + vector.size());
  L2NormalizeInto(vector.data(), dim_, owned_vectors_.data() + offset);
  ++count_;
  // push_back may have reallocated; rebind the active pointers.
  ids_ = owned_ids_.data();
  vectors_ = owned_vectors_.data();
}

void FlatIndex::AttachStorage(const int64_t* ids, const float* vectors,
                              int64_t count, int64_t dim) {
  CHECK_GE(count, 0);
  owned_ids_.clear();
  owned_vectors_.clear();
  count_ = count;
  dim_ = count == 0 ? 0 : dim;
  ids_ = count == 0 ? nullptr : ids;
  vectors_ = count == 0 ? nullptr : vectors;
}

void FlatIndex::SearchNormalized(const float* query, int k,
                                 SearchScratch* scratch,
                                 std::vector<SearchResult>* out) const {
  out->clear();
  if (count_ == 0 || k <= 0) return;

  std::vector<SearchResult>& scores = scratch->scores;
  scores.resize(static_cast<size_t>(count_));
  for (int64_t i = 0; i < count_; ++i) {
    const float* row = vectors_ + i * dim_;
    float dot = 0.0f;
    for (int64_t j = 0; j < dim_; ++j) dot += row[j] * query[j];
    scores[static_cast<size_t>(i)] =
        SearchResult{ids_[static_cast<size_t>(i)], dot};
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
  out->assign(scores.begin(), scores.begin() + take);
}

std::vector<SearchResult> FlatIndex::Search(const std::vector<float>& query,
                                            int k) const {
  if (count_ == 0 || k <= 0) return {};
  if (static_cast<int64_t>(query.size()) != dim_) {
    // A malformed query degrades to "no neighbours" rather than aborting
    // the process; an empty result is a valid answer for every caller.
    LOG(WARNING) << "FlatIndex: query dim " << query.size()
                 << " != index dim " << dim_ << "; returning no results";
    return {};
  }
  std::vector<float> q(query.size());
  L2NormalizeInto(query.data(), dim_, q.data());
  SearchScratch scratch;
  std::vector<SearchResult> out;
  SearchNormalized(q.data(), k, &scratch, &out);
  return out;
}

}  // namespace explainti::ann
