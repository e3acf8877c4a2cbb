#ifndef EXPLAINTI_QA_SURROGATE_H_
#define EXPLAINTI_QA_SURROGATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/inference_session.h"
#include "core/task_data.h"
#include "qa/query.h"
#include "util/status.h"

namespace explainti::qa {

/// Tuning knobs for the QA layer and its surrogate tier. Defaults are the
/// values the bench gate was tuned against; the serving layer embeds one
/// of these in `serve::ServerOptions`.
struct QaOptions {
  /// Arm the explanation-distilled surrogate as the first tier. Off by
  /// default: the cascade is opt-in, and a disabled cascade is the
  /// bit-identity reference the fail-closed path must match.
  bool enable_surrogate = false;
  /// A surrogate answer below this confidence escalates to the teacher.
  float confidence_threshold = 0.9f;
  /// Full-batch gradient-descent distillation schedule (deterministic:
  /// zero init, fixed epoch count, no shuffling). The mean-normalised
  /// hashed features are small (~1/len per bucket), so the schedule runs
  /// long and hot: a fit takes tenths of a second, not milliseconds.
  /// Each epoch touches only each row's nonzero features (6-8% of them
  /// on the bench/e2e fixture); `bench_qa` reports what a fit costs.
  int surrogate_epochs = 1200;
  /// Cap on teacher Explain calls used to distill token importances.
  int distill_max_samples = 64;
};

/// Explanation-distilled linear surrogate for one task (Shi et al.:
/// explanation-boosted surrogates). Built once from a frozen teacher
/// session; serving is one sparse dot product per label over the sample's
/// precomputed nonzero features, allocation-free after a one-call warm-up.
///
/// Features (precomputed for every task sample at build, kept as each
/// row's nonzeros; hash_dim is a fixed 512):
///   [0, hash_dim)            hashed bag of token ids, each token weighted
///                            by (1 + distilled LE importance of its id),
///                            normalised by token count;
///   [hash_dim, +num_labels)  graph-vote prior: distribution of TEACHER
///                            labels over the sample's training-set graph
///                            neighbours (SE view distilled to a vote);
///   [last]                   bias.
/// Token importances are distilled from teacher LE windows (relevance mass
/// accumulated per token id over a capped training slice); targets are
/// TEACHER labels, not gold — the surrogate imitates the teacher, and its
/// agreement with the teacher is what the bench gates.
///
/// What the surrogate can and cannot answer: it sees unigram identity and
/// neighbour votes, not token order or cross-column attention — good
/// enough to clear the agreement floor on easy columns, which is exactly
/// why low-confidence scores must escalate (CascadeRouter in qa/engine.h).
class SurrogateModel {
 public:
  /// Caller-owned scoring scratch. Sized on first ScoreInto; reusing it
  /// across calls makes every later call allocation-free.
  struct Scratch {
    std::vector<float> logits;
    std::vector<float> probs;
    std::vector<int> labels;
  };

  /// Distils a surrogate from `session`'s task `kind`. Returns
  /// InvalidArgument for an absent task, an empty training split, a
  /// non-positive `surrogate_epochs` or a negative `distill_max_samples`.
  static util::StatusOr<std::unique_ptr<SurrogateModel>> Distill(
      const core::InferenceSession& session, core::TaskKind kind,
      const QaOptions& options);

  /// Scores one sample: fills `scratch` (logits, per-label probabilities
  /// under the trained head, decoded labels — same decode rule as the
  /// teacher) and sets
  /// `confidence` (multiclass: top probability; multi-label: mean
  /// per-label certainty max(p, 1-p)). InvalidArgument when `sample_id`
  /// is outside the task. Allocation-free once `scratch` is warm.
  util::Status ScoreInto(int sample_id, Scratch* scratch,
                         float* confidence) const;

  /// Appends up to `max_items` kSurrogate evidence items for `label` on
  /// `sample_id`: the tokens whose hashed features contribute the largest
  /// positive weight * feature mass to that label's logit. Renders from
  /// the task's stored token strings; allocates (compose path only).
  void AppendSaliency(int sample_id, int label, int max_items, int step,
                      std::vector<QaEvidenceItem>* items) const;

  core::TaskKind task_kind() const { return kind_; }
  int num_labels() const { return num_labels_; }
  int feature_dim() const { return feature_dim_; }
  int num_samples() const { return num_samples_; }
  bool multi_label() const { return multi_label_; }

 private:
  SurrogateModel() = default;

  /// Precomputes the feature row of every task sample and keeps its
  /// nonzeros (teacher train labels feed the graph-vote block).
  void BuildFeatures(const core::TaskData& task,
                     const std::vector<std::vector<int>>& train_labels);

  /// Full-batch gradient descent of W against multi-hot teacher targets
  /// on the training split — sigmoid/BCE for multi-label heads, softmax/CE
  /// for multiclass (matching the teacher's loss geometry).
  void Train(const core::TaskData& task,
             const std::vector<std::vector<int>>& train_labels,
             const QaOptions& options);

  /// Logit of `label` for sample `sample_id`: its nonzero features
  /// against that label's weight row, summed in ascending feature order.
  float Logit(int sample_id, int label) const;

  const core::TaskData* task_ = nullptr;  ///< Borrowed; model outlives us.
  core::TaskKind kind_ = core::TaskKind::kType;
  bool multi_label_ = false;
  int num_labels_ = 0;
  int feature_dim_ = 0;
  int num_samples_ = 0;
  /// Distilled LE importance per token id (absent ids score 0).
  std::unordered_map<int, float> token_importance_;
  /// The feature rows, compressed: sample i's nonzero features are
  /// (nz_index_[k], nz_value_[k]) for k in [nz_begin_[i], nz_begin_[i+1]),
  /// in ascending feature index. Skipping a zero feature drops a term
  /// that adds or subtracts ±0, which changes no finite accumulator that
  /// is not −0, and none is: every sum and weight starts at +0, and
  /// round-to-nearest yields −0 only from −0 operands. So training and
  /// scoring over the nonzeros are bit-identical to the dense loops.
  std::vector<int> nz_begin_;  ///< [num_samples + 1].
  std::vector<int> nz_index_;
  std::vector<float> nz_value_;
  std::vector<float> weights_;  ///< [num_labels, feature_dim], row-major.
};

}  // namespace explainti::qa

#endif  // EXPLAINTI_QA_SURROGATE_H_
