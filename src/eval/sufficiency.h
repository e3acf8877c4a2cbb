#ifndef EXPLAINTI_EVAL_SUFFICIENCY_H_
#define EXPLAINTI_EVAL_SUFFICIENCY_H_

#include <string>
#include <vector>

#include "eval/f1_metrics.h"

namespace explainti::eval {

/// A dataset of explanation texts for the FRESH sufficiency protocol
/// (Jain et al., ACL 2020; paper Section IV-C): each sample is replaced by
/// the explanation a method produced for it, and a fresh classifier is
/// trained on explanations alone. High F1 means the explanations alone
/// carry the label signal — they are *sufficient*.
struct ExplanationDataset {
  std::vector<std::string> train_texts;
  std::vector<std::vector<int>> train_labels;
  std::vector<std::string> test_texts;
  std::vector<std::vector<int>> test_labels;
  int num_labels = 0;
  bool multi_label = false;
};

/// Trains the sufficiency probe on train explanations and returns test F1.
///
/// The probe is a hashed bag-of-words MLP rather than the paper's RoBERTa
/// (substitution documented in DESIGN.md): the probe's only job is to
/// measure how much label information the explanation text carries, and a
/// BoW probe measures exactly that at a fraction of the cost.
F1Scores EvaluateSufficiency(const ExplanationDataset& dataset);

}  // namespace explainti::eval

#endif  // EXPLAINTI_EVAL_SUFFICIENCY_H_
