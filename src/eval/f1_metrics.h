#ifndef EXPLAINTI_EVAL_F1_METRICS_H_
#define EXPLAINTI_EVAL_F1_METRICS_H_

#include <span>
#include <vector>

namespace explainti::eval {

/// The three F1 aggregations the paper reports (Section IV-A).
struct F1Scores {
  double micro = 0.0;
  double macro = 0.0;
  double weighted = 0.0;
};

/// A prediction/gold pair as label-id sets. Multi-class tasks use
/// single-element sets; multi-label tasks may have several gold labels and
/// several predicted labels.
struct LabeledPrediction {
  std::vector<int> gold;
  std::vector<int> predicted;
};

/// The one label-decode rule every classifier here shares: a multi-label
/// task takes every label whose score is >= `threshold`, falling back to
/// the first argmax when none clears it; a multiclass task takes the
/// first argmax (`threshold` unused). Appends to `*labels`, so a caller
/// that reuses the vector decodes without allocating once it is warm.
/// Each caller keeps its own scores and threshold: 0.5 on probabilities,
/// or 0 on logits.
void AppendDecodedLabels(std::span<const float> scores, bool multi_label,
                         float threshold, std::vector<int>* labels);

/// Computes micro / macro / weighted F1 over `num_labels` classes from
/// per-label true-positive / false-positive / false-negative counts:
///  - micro: global counts pooled across labels;
///  - macro: unweighted mean of per-label F1;
///  - weighted: mean of per-label F1 weighted by gold support.
/// Labels with zero support contribute 0 to macro (standard sklearn
/// behaviour) and nothing to weighted.
F1Scores ComputeF1(const std::vector<LabeledPrediction>& predictions,
                   int num_labels);

}  // namespace explainti::eval

#endif  // EXPLAINTI_EVAL_F1_METRICS_H_
