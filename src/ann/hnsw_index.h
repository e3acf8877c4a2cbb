#ifndef EXPLAINTI_ANN_HNSW_INDEX_H_
#define EXPLAINTI_ANN_HNSW_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ann/index.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/status.h"

namespace explainti::ann {

/// HNSW construction/search parameters (Malkov & Yashunin, TPAMI 2020).
struct HnswOptions {
  /// Target out-degree per node on upper layers; layer 0 allows 2*M.
  int M = 16;
  /// Beam width while inserting.
  int ef_construction = 100;
  /// Beam width while searching (raised to k when smaller).
  int ef_search = 50;
  /// Seed for the level-assignment randomness.
  uint64_t seed = 42;
};

/// Derives the level-assignment seed for one store segment from the
/// store-wide base seed: a splitmix64-style mix so sibling segments get
/// decorrelated level sequences (identical seeds would give every segment
/// the same level pattern and correlated graph shape), while the same
/// (base_seed, segment_index) pair always rebuilds the same graph.
inline uint64_t SeedForSegment(uint64_t base_seed, int64_t segment_index) {
  uint64_t z =
      base_seed + 0x9e3779b97f4a7c15ULL *
                      (static_cast<uint64_t>(segment_index) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// From-scratch Hierarchical Navigable Small World index over cosine
/// similarity.
///
/// Replaces faiss's IndexHNSW in the paper's Global Explanations module
/// (Algorithm 2): the embedding store Q is indexed here and queried for
/// the top-K influential training samples in O(log N) expected time. The
/// test suite certifies recall@10 against FlatIndex.
///
/// Two storage modes: `Add()` copies + normalises and inserts in one step
/// (owned mode), while a store segment attaches its normalised payload
/// (possibly an mmap'd file) with `AttachStorage()` and then either
/// inserts rows one at a time with `InsertNode()` (fresh build) or
/// restores a previously serialised graph with `LoadGraph()`. Graph
/// adjacency is the only state `SerializeGraph()` emits — vectors travel
/// in the segment payload, not here.
class HnswIndex {
 public:
  explicit HnswIndex(HnswOptions options = HnswOptions());

  /// Inserts `vector` under `id` (owned mode). Ids must be unique.
  void Add(int64_t id, const std::vector<float>& vector);

  /// Top-k most-similar stored vectors, most similar first.
  std::vector<SearchResult> Search(const std::vector<float>& query,
                                   int k) const;
  int64_t size() const { return count_; }
  int64_t dim() const { return dim_; }

  /// Rebinds the index to `count` rows of externally owned storage:
  /// `vectors` is row-major `count x dim` and already L2-normalised,
  /// `ids[i]` names row i, and the caller keeps both alive for the
  /// index's lifetime. Only valid on an index with no graph yet; follow
  /// with InsertNode() per row or one LoadGraph().
  void AttachStorage(const int64_t* ids, const float* vectors, int64_t count,
                     int64_t dim);

  /// Inserts the next attached row (rows enter the graph in storage
  /// order); segment builds call this once per row. Requires a row not
  /// yet in the graph.
  void InsertNode();

  /// Segment-local search: `query` is already L2-normalised with exactly
  /// dim() floats. Fills `*out` (cleared first) with up to k hits, closest
  /// first — bit-identical to Search() on the same index. Reuses
  /// `*scratch`; steady-state repeats allocate nothing.
  void SearchNormalized(const float* query, int k, SearchScratch* scratch,
                        std::vector<SearchResult>* out) const;

  /// Appends the graph structure (entry point, max level, per-node
  /// per-layer adjacency) to `*out`. Deterministic: equal graphs emit
  /// equal bytes.
  void SerializeGraph(std::string* out) const;

  /// Restores a SerializeGraph() image onto attached storage. The node
  /// count must match the attached row count; malformed or truncated
  /// input returns InvalidArgument and leaves the index unusable for
  /// search (callers discard it).
  util::Status LoadGraph(util::BinaryReader* reader);

 private:
  /// Neighbour lists: per node, per layer (0..node_level).
  struct NodeLinks {
    std::vector<std::vector<int>> per_layer;
  };

  float Distance(const float* a, const float* b) const;
  const float* VectorOf(int node) const;

  /// Greedy single-entry descent on `layer` (ef = 1).
  int GreedyClosest(const float* query, int entry, int layer) const;

  /// Beam search on `layer` into scratch->beam, closest first after the
  /// call. Shared by inserts and queries; with a warm scratch it performs
  /// no heap allocations.
  void SearchLayerInto(const float* query, int entry, int ef, int layer,
                       SearchScratch* scratch) const;

  /// Keeps the `m` closest of `candidates`, which it sorts in place by
  /// distance only (ties keep the order std::sort leaves them in, which
  /// the serialised graph bytes depend on).
  static std::vector<int> SelectNeighbors(
      std::vector<std::pair<float, int>>* candidates, int m);

  int RandomLevel();

  HnswOptions options_;
  double level_multiplier_;
  util::Rng rng_;

  int64_t dim_ = 0;
  int64_t count_ = 0;  ///< Rows in storage (owned or attached).
  int64_t built_ = 0;  ///< Rows inserted into the graph.
  const int64_t* ids_ = nullptr;
  const float* vectors_ = nullptr;  // Row-major, L2-normalised.
  std::vector<int64_t> owned_ids_;
  std::vector<float> owned_vectors_;
  std::vector<NodeLinks> links_;
  /// Beam-search scratch reused by every InsertNode(): its visited marks
  /// span all attached rows, so a per-insert scratch would make a build
  /// O(n^2).
  SearchScratch build_scratch_;
  int entry_point_ = -1;
  int max_level_ = -1;
};

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_HNSW_INDEX_H_
