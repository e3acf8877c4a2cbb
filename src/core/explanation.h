#ifndef EXPLAINTI_CORE_EXPLANATION_H_
#define EXPLAINTI_CORE_EXPLANATION_H_

#include <string>
#include <vector>

#include "graph/column_graph.h"

namespace explainti::core {

/// One local explanation: a token window (or window pair for relations)
/// with its relevance score RS (Eq. 3).
struct LocalExplanation {
  int window_start = -1;  ///< Token index of the window start.
  int window_end = -1;    ///< One past the window end.
  /// Second window for pairwise (relation) concepts; -1 for type task.
  int window_start2 = -1;
  int window_end2 = -1;
  float relevance = 0.0f;  ///< RS_j, normalised over all windows.
  std::string text;        ///< The window's tokens joined with spaces.
};

/// One global explanation: an influential training sample with its
/// influence score IS (Eq. 4).
struct GlobalExplanation {
  int train_sample_id = -1;  ///< Index into the task's training samples.
  float influence = 0.0f;    ///< IS, normalised over the retrieved top-K.
  std::string text;          ///< The sample's serialised text.
  std::vector<int> labels;   ///< The sample's gold labels (for rendering).
};

/// One structural explanation: an influential graph neighbour with its
/// attention score AS (Eq. 5).
struct StructuralExplanation {
  int neighbor_sample_id = -1;
  float attention = 0.0f;
  graph::BridgeKind via = graph::BridgeKind::kSelf;  ///< Connecting bridge.
  std::string text;
  std::vector<int> labels;
};

/// The multi-view explanation set Z returned with every prediction.
struct Explanation {
  std::vector<int> predicted_labels;
  std::vector<float> probabilities;  ///< Per-label sigma outputs.
  std::vector<LocalExplanation> local;            ///< Sorted by RS desc.
  std::vector<GlobalExplanation> global;          ///< Sorted by IS desc.
  std::vector<StructuralExplanation> structural;  ///< Sorted by AS desc.
  /// Always false: every store segment serves its HNSW graph, so GE
  /// retrieval has no degraded tier. Kept only because the end-to-end
  /// bench compares it; it goes when that bench stops reading it.
  bool ann_degraded = false;
  /// Human-readable account of any degradation (today only an empty
  /// embedding store); empty when healthy.
  std::string degradation_note;
};

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_EXPLANATION_H_
