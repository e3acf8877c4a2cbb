#include "ann/hnsw_index.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace explainti::ann {

namespace {

// Comparators over (distance, node) pairs. They compare distance ONLY:
// a pair's default < would also order ties by node, and the heap and
// sort orders — hence every neighbour list and the serialised graph
// bytes — depend on how ties fall.
inline bool DistLess(const std::pair<float, int>& a,
                     const std::pair<float, int>& b) {
  return a.first < b.first;
}
inline bool DistGreater(const std::pair<float, int>& a,
                        const std::pair<float, int>& b) {
  return a.first > b.first;
}

}  // namespace

HnswIndex::HnswIndex(HnswOptions options)
    : options_(options),
      level_multiplier_(1.0 / std::log(static_cast<double>(options.M))),
      rng_(options.seed) {
  CHECK_GE(options.M, 2);
  CHECK_GE(options.ef_construction, options.M);
}

float HnswIndex::Distance(const float* a, const float* b) const {
  // Vectors are unit-norm: cosine distance = 1 - dot.
  float dot = 0.0f;
  for (int64_t j = 0; j < dim_; ++j) dot += a[j] * b[j];
  return 1.0f - dot;
}

const float* HnswIndex::VectorOf(int node) const {
  return vectors_ + static_cast<int64_t>(node) * dim_;
}

int HnswIndex::RandomLevel() {
  const double u = std::max(rng_.Uniform(), 1e-12);
  return static_cast<int>(-std::log(u) * level_multiplier_);
}

int HnswIndex::GreedyClosest(const float* query, int entry, int layer) const {
  int current = entry;
  float current_dist = Distance(query, VectorOf(current));
  bool improved = true;
  while (improved) {
    improved = false;
    for (int neighbor : links_[static_cast<size_t>(current)]
                            .per_layer[static_cast<size_t>(layer)]) {
      const float d = Distance(query, VectorOf(neighbor));
      if (d < current_dist) {
        current = neighbor;
        current_dist = d;
        improved = true;
      }
    }
  }
  return current;
}

void HnswIndex::SearchLayerInto(const float* query, int entry, int ef,
                                int layer, SearchScratch* s) const {
  // Epoch-stamped visited marks: bumping the epoch "clears" the array in
  // O(1) without touching memory, so repeat queries allocate nothing.
  if (s->visited.size() < static_cast<size_t>(count_)) {
    s->visited.resize(static_cast<size_t>(count_), 0);
  }
  if (++s->epoch == 0) {
    std::fill(s->visited.begin(), s->visited.end(), 0);
    s->epoch = 1;
  }
  auto& frontier = s->frontier;  // Min-heap by distance (DistGreater).
  auto& beam = s->beam;          // Max-heap by distance (DistLess).
  frontier.clear();
  beam.clear();

  const float entry_dist = Distance(query, VectorOf(entry));
  frontier.emplace_back(entry_dist, entry);
  beam.emplace_back(entry_dist, entry);
  s->visited[static_cast<size_t>(entry)] = s->epoch;

  auto& fresh = s->fresh;
  auto& fresh_dist = s->fresh_dist;
  const int64_t grain = util::GrainForCost(dim_);

  while (!frontier.empty()) {
    const std::pair<float, int> closest = frontier.front();
    std::pop_heap(frontier.begin(), frontier.end(), DistGreater);
    frontier.pop_back();
    if (closest.first > beam.front().first &&
        static_cast<int>(beam.size()) >= ef) {
      break;
    }
    fresh.clear();
    for (int neighbor : links_[static_cast<size_t>(closest.second)]
                            .per_layer[static_cast<size_t>(layer)]) {
      uint32_t& mark = s->visited[static_cast<size_t>(neighbor)];
      if (mark != s->epoch) {
        mark = s->epoch;
        fresh.push_back(neighbor);
      }
    }
    fresh_dist.resize(fresh.size());
    const auto eval = [&](int64_t ib, int64_t ie) {
      for (int64_t i = ib; i < ie; ++i) {
        fresh_dist[static_cast<size_t>(i)] =
            Distance(query, VectorOf(fresh[static_cast<size_t>(i)]));
      }
    };
    // Direct call on the serial path: ParallelFor's std::function envelope
    // would heap-allocate, and steady-state queries must not.
    if (static_cast<int64_t>(fresh.size()) <= grain ||
        util::GlobalThreadPool().num_threads() == 1) {
      eval(0, static_cast<int64_t>(fresh.size()));
    } else {
      util::ParallelFor(0, static_cast<int64_t>(fresh.size()), grain, eval);
    }
    for (size_t i = 0; i < fresh.size(); ++i) {
      const float d = fresh_dist[i];
      if (static_cast<int>(beam.size()) < ef || d < beam.front().first) {
        frontier.emplace_back(d, fresh[i]);
        std::push_heap(frontier.begin(), frontier.end(), DistGreater);
        beam.emplace_back(d, fresh[i]);
        std::push_heap(beam.begin(), beam.end(), DistLess);
        if (static_cast<int>(beam.size()) > ef) {
          std::pop_heap(beam.begin(), beam.end(), DistLess);
          beam.pop_back();
        }
      }
    }
  }
  // Closest first: n pop_heap steps with the distance-only comparator.
  std::sort_heap(beam.begin(), beam.end(), DistLess);
}

std::vector<int> HnswIndex::SelectNeighbors(
    std::vector<std::pair<float, int>>* candidates, int m) {
  std::sort(candidates->begin(), candidates->end(), DistLess);
  std::vector<int> out;
  out.reserve(static_cast<size_t>(m));
  for (const std::pair<float, int>& c : *candidates) {
    if (static_cast<int>(out.size()) >= m) break;
    out.push_back(c.second);
  }
  return out;
}

void HnswIndex::Add(int64_t id, const std::vector<float>& vector) {
  CHECK(owned_ids_.size() == static_cast<size_t>(count_))
      << "HnswIndex::Add on an index attached to external storage";
  if (dim_ == 0) dim_ = static_cast<int64_t>(vector.size());
  CHECK_EQ(static_cast<int64_t>(vector.size()), dim_)
      << "HnswIndex dimension mismatch";
  owned_ids_.push_back(id);
  const size_t offset = owned_vectors_.size();
  owned_vectors_.resize(offset + vector.size());
  L2NormalizeInto(vector.data(), dim_, owned_vectors_.data() + offset);
  ++count_;
  // push_back may have reallocated; rebind the active pointers.
  ids_ = owned_ids_.data();
  vectors_ = owned_vectors_.data();
  InsertNode();
}

void HnswIndex::AttachStorage(const int64_t* ids, const float* vectors,
                              int64_t count, int64_t dim) {
  CHECK_EQ(built_, 0) << "HnswIndex::AttachStorage on a non-empty graph";
  CHECK_GE(count, 0);
  owned_ids_.clear();
  owned_vectors_.clear();
  count_ = count;
  dim_ = dim;
  ids_ = ids;
  vectors_ = vectors;
}

void HnswIndex::InsertNode() {
  CHECK_LT(built_, count_) << "HnswIndex::InsertNode past the attached rows";
  const int node = static_cast<int>(built_++);
  const int level = RandomLevel();
  links_.emplace_back();
  links_.back().per_layer.resize(static_cast<size_t>(level) + 1);

  if (entry_point_ < 0) {
    entry_point_ = node;
    max_level_ = level;
    return;
  }

  const float* query = VectorOf(node);
  int current = entry_point_;

  // Descend greedily through layers above the new node's level.
  for (int layer = max_level_; layer > level; --layer) {
    current = GreedyClosest(query, current, layer);
  }

  // Insert with beam search on each shared layer.
  std::vector<std::pair<float, int>>& beam = build_scratch_.beam;
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    SearchLayerInto(query, current, options_.ef_construction, layer,
                    &build_scratch_);
    // The next layer starts from the beam's head as the search left it,
    // before SelectNeighbors re-sorts the beam in place.
    const int next = beam.front().second;
    const int m_max = layer == 0 ? 2 * options_.M : options_.M;
    std::vector<int> neighbors = SelectNeighbors(&beam, options_.M);

    auto& node_links = links_[static_cast<size_t>(node)]
                           .per_layer[static_cast<size_t>(layer)];
    node_links = neighbors;

    // Bidirectional links, shrinking over-full neighbour lists.
    for (int neighbor : neighbors) {
      auto& nbr_links = links_[static_cast<size_t>(neighbor)]
                            .per_layer[static_cast<size_t>(layer)];
      nbr_links.push_back(node);
      if (static_cast<int>(nbr_links.size()) > m_max) {
        std::vector<std::pair<float, int>> pruned(nbr_links.size());
        const float* nbr_vec = VectorOf(neighbor);
        util::ParallelFor(
            0, static_cast<int64_t>(nbr_links.size()),
            util::GrainForCost(dim_), [&](int64_t ib, int64_t ie) {
              for (int64_t i = ib; i < ie; ++i) {
                const int candidate = nbr_links[static_cast<size_t>(i)];
                pruned[static_cast<size_t>(i)] = {
                    Distance(nbr_vec, VectorOf(candidate)), candidate};
              }
            });
        nbr_links = SelectNeighbors(&pruned, m_max);
      }
    }
    current = next;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = node;
  }
}

void HnswIndex::SearchNormalized(const float* query, int k,
                                 SearchScratch* scratch,
                                 std::vector<SearchResult>* out) const {
  out->clear();
  if (entry_point_ < 0 || k <= 0) return;

  int current = entry_point_;
  for (int layer = max_level_; layer > 0; --layer) {
    current = GreedyClosest(query, current, layer);
  }
  const int ef = std::max(options_.ef_search, k);
  SearchLayerInto(query, current, ef, 0, scratch);

  const size_t take =
      std::min(scratch->beam.size(), static_cast<size_t>(k));
  for (size_t i = 0; i < take; ++i) {
    out->push_back(SearchResult{
        ids_[static_cast<size_t>(scratch->beam[i].second)],
        1.0f - scratch->beam[i].first});
  }
}

std::vector<SearchResult> HnswIndex::Search(const std::vector<float>& query,
                                            int k) const {
  std::vector<SearchResult> out;
  if (entry_point_ < 0 || k <= 0) return out;
  if (static_cast<int64_t>(query.size()) != dim_) {
    // Degrade to "no neighbours" instead of aborting, as FlatIndex does.
    LOG(WARNING) << "HnswIndex: query dim " << query.size()
                 << " != index dim " << dim_ << "; returning no results";
    return out;
  }

  std::vector<float> q(query.size());
  L2NormalizeInto(query.data(), dim_, q.data());
  SearchScratch scratch;
  SearchNormalized(q.data(), k, &scratch, &out);
  return out;
}

void HnswIndex::SerializeGraph(std::string* out) const {
  util::AppendPod(out, static_cast<int32_t>(entry_point_));
  util::AppendPod(out, static_cast<int32_t>(max_level_));
  util::AppendPod(out, static_cast<int64_t>(links_.size()));
  for (const NodeLinks& node : links_) {
    util::AppendPod(out, static_cast<int32_t>(node.per_layer.size()));
    for (const std::vector<int>& layer : node.per_layer) {
      util::AppendPod(out, static_cast<int32_t>(layer.size()));
      for (int neighbor : layer) {
        util::AppendPod(out, static_cast<int32_t>(neighbor));
      }
    }
  }
}

util::Status HnswIndex::LoadGraph(util::BinaryReader* reader) {
  if (built_ != 0) {
    return util::Status::FailedPrecondition(
        "HnswIndex::LoadGraph on a non-empty graph");
  }
  const auto malformed = [](const std::string& what) {
    return util::Status::InvalidArgument("malformed HNSW graph: " + what);
  };
  int32_t entry = 0;
  int32_t max_level = 0;
  int64_t nodes = 0;
  if (!reader->Read(&entry) || !reader->Read(&max_level) ||
      !reader->Read(&nodes)) {
    return malformed("truncated header");
  }
  if (nodes != count_) {
    return malformed("node count " + std::to_string(nodes) +
                     " != attached rows " + std::to_string(count_));
  }
  if (nodes == 0) {
    if (entry != -1) return malformed("entry point in an empty graph");
    return util::Status::OK();
  }
  if (entry < 0 || entry >= nodes || max_level < 0) {
    return malformed("entry point or max level out of range");
  }
  links_.resize(static_cast<size_t>(nodes));
  for (int64_t n = 0; n < nodes; ++n) {
    int32_t num_layers = 0;
    if (!reader->Read(&num_layers) || num_layers < 1 ||
        num_layers > max_level + 1) {
      return malformed("layer count at node " + std::to_string(n));
    }
    auto& per_layer = links_[static_cast<size_t>(n)].per_layer;
    per_layer.resize(static_cast<size_t>(num_layers));
    for (int32_t l = 0; l < num_layers; ++l) {
      int32_t degree = 0;
      if (!reader->Read(&degree) || degree < 0 || degree > nodes) {
        return malformed("degree at node " + std::to_string(n));
      }
      auto& layer = per_layer[static_cast<size_t>(l)];
      layer.resize(static_cast<size_t>(degree));
      for (int32_t e = 0; e < degree; ++e) {
        int32_t neighbor = 0;
        if (!reader->Read(&neighbor) || neighbor < 0 || neighbor >= nodes) {
          return malformed("neighbour at node " + std::to_string(n));
        }
        layer[static_cast<size_t>(e)] = neighbor;
      }
    }
  }
  // Searches descend from the entry point through every layer and follow
  // layer-l links on layer l, so the layers must line up: the entry node
  // spans all of them, and every layer-l neighbour has a layer l.
  if (links_[static_cast<size_t>(entry)].per_layer.size() !=
      static_cast<size_t>(max_level) + 1) {
    return malformed("entry point does not span max level " +
                     std::to_string(max_level));
  }
  for (int64_t n = 0; n < nodes; ++n) {
    const auto& per_layer = links_[static_cast<size_t>(n)].per_layer;
    for (size_t l = 0; l < per_layer.size(); ++l) {
      for (int neighbor : per_layer[l]) {
        if (links_[static_cast<size_t>(neighbor)].per_layer.size() <= l) {
          return malformed("node " + std::to_string(n) + " links node " +
                           std::to_string(neighbor) + " above its top layer");
        }
      }
    }
  }
  entry_point_ = entry;
  max_level_ = max_level;
  built_ = nodes;
  return util::Status::OK();
}

}  // namespace explainti::ann
