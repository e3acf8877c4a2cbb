#ifndef EXPLAINTI_ANN_HNSW_INDEX_H_
#define EXPLAINTI_ANN_HNSW_INDEX_H_

#include <cstdint>
#include <string>
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
/// Storage modes mirror FlatIndex: `Add()` copies + normalises and inserts
/// in one step (owned mode), while a store segment attaches its shared
/// normalised payload with `AttachStorage()` and then either inserts rows
/// one at a time with `InsertNode()` (fresh build) or restores a
/// previously serialised graph with `LoadGraph()`. Graph adjacency is the
/// only state `SerializeGraph()` emits — vectors travel in the segment
/// payload, not here.
class HnswIndex : public VectorIndex {
 public:
  explicit HnswIndex(HnswOptions options = HnswOptions());

  void Add(int64_t id, const std::vector<float>& vector) override;
  std::vector<SearchResult> Search(const std::vector<float>& query,
                                   int k) const override;
  int64_t size() const override { return count_; }
  int64_t dim() const override { return dim_; }

  /// Maximum layer currently in use (diagnostics).
  int max_level() const { return max_level_; }

  const HnswOptions& options() const { return options_; }

  /// Rebinds the index to `count` rows of externally owned, already
  /// L2-normalised storage (see FlatIndex::AttachStorage). Only valid on
  /// an index with no graph yet; follow with InsertNode() per row or one
  /// LoadGraph().
  void AttachStorage(const int64_t* ids, const float* vectors, int64_t count,
                     int64_t dim);

  /// Inserts the next attached row (rows enter the graph in storage
  /// order); segment builds call this once per row. Requires
  /// graph_size() < size().
  void InsertNode();

  /// Rows inserted into the graph so far (== size() once a build or
  /// LoadGraph completes).
  int64_t graph_size() const { return built_; }

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

  /// (distance, internal id) pair; smaller distance = more similar.
  struct Candidate {
    float distance;
    int node;
    bool operator<(const Candidate& other) const {
      return distance < other.distance;
    }
    bool operator>(const Candidate& other) const {
      return distance > other.distance;
    }
  };

  float Distance(const float* a, const float* b) const;
  const float* VectorOf(int node) const;

  /// Greedy single-entry descent on `layer` (ef = 1).
  int GreedyClosest(const float* query, int entry, int layer) const;

  /// Beam search on `layer` returning up to `ef` closest candidates
  /// (build path; allocates freely).
  std::vector<Candidate> SearchLayer(const float* query, int entry, int ef,
                                     int layer) const;

  /// Query-path beam search into scratch->beam (closest first after the
  /// call). Heap operation order matches SearchLayer exactly, so both
  /// paths produce bit-identical candidate lists.
  void SearchLayerInto(const float* query, int entry, int ef, int layer,
                       SearchScratch* scratch) const;

  /// Heuristic neighbour selection: keeps the `m` closest.
  static std::vector<int> SelectNeighbors(std::vector<Candidate> candidates,
                                          int m);

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
  int entry_point_ = -1;
  int max_level_ = -1;
};

}  // namespace explainti::ann

#endif  // EXPLAINTI_ANN_HNSW_INDEX_H_
