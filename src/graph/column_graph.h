#ifndef EXPLAINTI_GRAPH_COLUMN_GRAPH_H_
#define EXPLAINTI_GRAPH_COLUMN_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace explainti::graph {

/// How a neighbour is connected to a sample (which bridge node links them).
enum class BridgeKind {
  kTitle,   ///< Shared table title.
  kHeader,  ///< Shared column header (or header pair for the pair graph).
  kSelf,    ///< Degenerate fallback when a sample has no neighbours.
};

const char* BridgeKindName(BridgeKind kind);

/// A sampled 2-hop neighbour: another sample id plus the bridge that
/// connects it (kept for rendering structural explanations).
struct SampledNeighbor {
  int sample_id = -1;
  BridgeKind via = BridgeKind::kSelf;
};

/// The column graph G_t / column-pair graph G_r of Algorithm 3.
///
/// Samples (columns, or column pairs) are nodes; table titles and column
/// headers (header pairs) are bridge nodes. Two samples are 2-hop
/// neighbours when they share a title or a header, which is exactly the
/// implicit intra-table (same title) and inter-table (same header, or same
/// title string across tables) connection structure the paper exploits.
/// The graph is "lightweight": columns are whole nodes, so its size is
/// O(total columns), not O(cells).
class ColumnGraph {
 public:
  ColumnGraph() = default;

  /// Registers sample `sample_id` (dense ids 0..N-1, in order) under its
  /// title and header bridge keys. Keys should be normalised (lower-case)
  /// by the caller; the pair graph passes a combined "h_i||h_j" header key.
  void AddSample(int sample_id, const std::string& title_key,
                 const std::string& header_key);

  /// Number of registered samples.
  int num_samples() const { return num_samples_; }

  /// All distinct 2-hop neighbours of `sample_id` (excluding itself).
  std::vector<SampledNeighbor> Neighbors(int sample_id) const;

  /// Uniformly samples `r` 2-hop neighbours, with replacement when the
  /// sample has fewer than `r` distinct neighbours (Section III-D.2). A
  /// sample with no neighbours at all yields `r` copies of itself with
  /// BridgeKind::kSelf so aggregation degenerates gracefully.
  std::vector<SampledNeighbor> SampleNeighbors(int sample_id, int r,
                                               util::Rng& rng) const;

 private:
  struct Membership {
    int title_group = -1;
    int header_group = -1;
  };

  int num_samples_ = 0;
  std::unordered_map<std::string, int> title_group_ids_;
  std::unordered_map<std::string, int> header_group_ids_;
  std::vector<std::vector<int>> title_groups_;   // Group id -> sample ids.
  std::vector<std::vector<int>> header_groups_;  // Group id -> sample ids.
  std::vector<Membership> memberships_;          // Sample id -> groups.
};

}  // namespace explainti::graph

#endif  // EXPLAINTI_GRAPH_COLUMN_GRAPH_H_
