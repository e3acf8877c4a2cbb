#include "eval/f1_metrics.h"

#include <unordered_set>

#include "util/logging.h"

namespace explainti::eval {

void AppendDecodedLabels(std::span<const float> scores, bool multi_label,
                         float threshold, std::vector<int>* labels) {
  const size_t before = labels->size();
  if (multi_label) {
    for (size_t i = 0; i < scores.size(); ++i) {
      if (scores[i] >= threshold) labels->push_back(static_cast<int>(i));
    }
  }
  if (labels->size() == before) {
    size_t best = 0;
    for (size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[best]) best = i;
    }
    labels->push_back(static_cast<int>(best));
  }
}

F1Scores ComputeF1(const std::vector<LabeledPrediction>& predictions,
                   int num_labels) {
  CHECK_GT(num_labels, 0);
  std::vector<int64_t> tp(static_cast<size_t>(num_labels), 0);
  std::vector<int64_t> fp(static_cast<size_t>(num_labels), 0);
  std::vector<int64_t> fn(static_cast<size_t>(num_labels), 0);

  for (const LabeledPrediction& p : predictions) {
    std::unordered_set<int> gold(p.gold.begin(), p.gold.end());
    std::unordered_set<int> predicted(p.predicted.begin(), p.predicted.end());
    for (int label : predicted) {
      CHECK(label >= 0 && label < num_labels) << "label id out of range";
      if (gold.count(label)) {
        ++tp[static_cast<size_t>(label)];
      } else {
        ++fp[static_cast<size_t>(label)];
      }
    }
    for (int label : gold) {
      CHECK(label >= 0 && label < num_labels) << "label id out of range";
      if (!predicted.count(label)) ++fn[static_cast<size_t>(label)];
    }
  }

  int64_t tp_total = 0;
  int64_t fp_total = 0;
  int64_t fn_total = 0;
  double macro_sum = 0.0;
  double weighted_sum = 0.0;
  int64_t support_total = 0;
  for (int label = 0; label < num_labels; ++label) {
    const size_t i = static_cast<size_t>(label);
    tp_total += tp[i];
    fp_total += fp[i];
    fn_total += fn[i];
    const int64_t support = tp[i] + fn[i];
    const double denom =
        2.0 * static_cast<double>(tp[i]) + static_cast<double>(fp[i] + fn[i]);
    const double f1 =
        denom > 0.0 ? 2.0 * static_cast<double>(tp[i]) / denom : 0.0;
    macro_sum += f1;
    weighted_sum += f1 * static_cast<double>(support);
    support_total += support;
  }

  F1Scores scores;
  const double micro_denom = 2.0 * static_cast<double>(tp_total) +
                             static_cast<double>(fp_total + fn_total);
  scores.micro =
      micro_denom > 0.0 ? 2.0 * static_cast<double>(tp_total) / micro_denom
                        : 0.0;
  scores.macro = macro_sum / static_cast<double>(num_labels);
  scores.weighted = support_total > 0
                        ? weighted_sum / static_cast<double>(support_total)
                        : 0.0;
  return scores;
}

}  // namespace explainti::eval
