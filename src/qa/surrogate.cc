#include "qa/surrogate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "util/logging.h"

namespace explainti::qa {

namespace {

/// Hashed token-feature buckets (feature dim = kHashDim + labels + 1).
constexpr int kHashDim = 512;
/// Step size of the distillation schedule (see QaOptions).
constexpr float kLearningRate = 4.0f;

float Sigmoid(float x) {
  if (x >= 0.0f) return 1.0f / (1.0f + std::exp(-x));
  const float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace

util::StatusOr<std::unique_ptr<SurrogateModel>> SurrogateModel::Distill(
    const core::InferenceSession& session, core::TaskKind kind,
    const QaOptions& options) {
  if (!session.HasTask(kind)) {
    return util::Status::InvalidArgument(
        std::string("surrogate distillation: session has no ") +
        core::TaskKindName(kind) + " task");
  }
  const core::TaskData& task = session.task_data(kind);
  if (task.train_ids.empty() || task.num_labels <= 0) {
    return util::Status::InvalidArgument(
        "surrogate distillation: empty training split");
  }
  if (options.surrogate_epochs <= 0 || options.distill_max_samples < 0) {
    return util::Status::InvalidArgument(
        "surrogate distillation: epochs must be positive and "
        "distill_max_samples non-negative");
  }

  auto model = std::unique_ptr<SurrogateModel>(new SurrogateModel());
  model->task_ = &task;
  model->kind_ = kind;
  model->multi_label_ = task.multi_label;
  model->num_labels_ = task.num_labels;
  model->feature_dim_ = kHashDim + task.num_labels + 1;
  model->num_samples_ = static_cast<int>(task.samples.size());

  // Teacher labels over the training split: the distillation targets AND
  // the graph-vote source. Dense by sample id for O(1) neighbour lookups.
  const std::vector<std::vector<int>> batch =
      session.PredictBatch(kind, task.train_ids);
  std::vector<std::vector<int>> train_labels(task.samples.size());
  for (size_t i = 0; i < task.train_ids.size(); ++i) {
    train_labels[static_cast<size_t>(task.train_ids[i])] = batch[i];
  }

  // Distil LE token importances: relevance mass of every teacher attention
  // window, accumulated per token id over a capped training slice.
  const int distill_n = std::min<int>(options.distill_max_samples,
                                      static_cast<int>(task.train_ids.size()));
  std::vector<int> distill_ids(task.train_ids.begin(),
                               task.train_ids.begin() + distill_n);
  const std::vector<core::Explanation> explanations =
      session.ExplainBatch(kind, distill_ids);
  for (size_t i = 0; i < explanations.size(); ++i) {
    const text::EncodedSequence& seq =
        task.samples[static_cast<size_t>(distill_ids[i])].seq;
    for (const core::LocalExplanation& le : explanations[i].local) {
      const std::pair<int, int> windows[2] = {
          {le.window_start, le.window_end},
          {le.window_start2, le.window_end2}};
      for (const auto& [start, end] : windows) {
        if (start < 0) continue;
        const int hi = std::min<int>(end, static_cast<int>(seq.ids.size()));
        for (int t = start; t < hi; ++t) {
          model->token_importance_[seq.ids[static_cast<size_t>(t)]] +=
              le.relevance;
        }
      }
    }
  }
  float max_importance = 0.0f;
  for (const auto& [id, mass] : model->token_importance_) {
    max_importance = std::max(max_importance, mass);
  }
  if (max_importance > 0.0f) {
    for (auto& [id, mass] : model->token_importance_) {
      mass /= max_importance;
    }
  }

  model->BuildFeatures(task, train_labels);
  model->Train(task, train_labels, options);
  LOG(INFO) << "qa: distilled " << core::TaskKindName(kind)
            << " surrogate: dim=" << model->feature_dim_ << " over "
            << task.train_ids.size() << " teacher-labelled samples ("
            << distill_n << " explained)";
  return model;
}

void SurrogateModel::BuildFeatures(
    const core::TaskData& task,
    const std::vector<std::vector<int>>& train_labels) {
  nz_begin_.assign(1, 0);
  nz_index_.clear();
  nz_value_.clear();
  std::vector<float> dense(static_cast<size_t>(feature_dim_));
  float* row = dense.data();
  for (int i = 0; i < num_samples_; ++i) {
    std::fill(dense.begin(), dense.end(), 0.0f);
    const text::EncodedSequence& seq = task.samples[static_cast<size_t>(i)].seq;
    for (int id : seq.ids) {
      const int bucket = id % kHashDim;
      float importance = 0.0f;
      if (auto it = token_importance_.find(id); it != token_importance_.end()) {
        importance = it->second;
      }
      row[bucket] += 1.0f + importance;
    }
    if (!seq.ids.empty()) {
      const float inv = 1.0f / static_cast<float>(seq.ids.size());
      for (int b = 0; b < kHashDim; ++b) row[b] *= inv;
    }
    // Graph-vote prior: the teacher's label distribution over training-set
    // 2-hop neighbours (non-train neighbours have no teacher label).
    int votes = 0;
    for (const graph::SampledNeighbor& n : task.graph.Neighbors(i)) {
      if (!task.IsTrainSample(n.sample_id)) continue;
      for (int label : train_labels[static_cast<size_t>(n.sample_id)]) {
        if (label >= 0 && label < num_labels_) {
          row[kHashDim + label] += 1.0f;
          ++votes;
        }
      }
    }
    if (votes > 0) {
      const float inv = 1.0f / static_cast<float>(votes);
      for (int l = 0; l < num_labels_; ++l) row[kHashDim + l] *= inv;
    }
    row[feature_dim_ - 1] = 1.0f;
    for (int d = 0; d < feature_dim_; ++d) {
      if (row[d] == 0.0f) continue;
      nz_index_.push_back(d);
      nz_value_.push_back(row[d]);
    }
    nz_begin_.push_back(static_cast<int>(nz_index_.size()));
  }
}

float SurrogateModel::Logit(int sample_id, int label) const {
  const float* w = weights_.data() + static_cast<size_t>(label) *
                                         static_cast<size_t>(feature_dim_);
  float z = 0.0f;
  for (int k = nz_begin_[static_cast<size_t>(sample_id)];
       k < nz_begin_[static_cast<size_t>(sample_id) + 1]; ++k) {
    z += nz_value_[static_cast<size_t>(k)] *
         w[nz_index_[static_cast<size_t>(k)]];
  }
  return z;
}

void SurrogateModel::Train(const core::TaskData& task,
                           const std::vector<std::vector<int>>& train_labels,
                           const QaOptions& options) {
  weights_.assign(
      static_cast<size_t>(num_labels_) * static_cast<size_t>(feature_dim_),
      0.0f);
  const int n = static_cast<int>(task.train_ids.size());
  // Multi-hot teacher targets, row-major [n, num_labels].
  std::vector<float> targets(static_cast<size_t>(n) *
                                 static_cast<size_t>(num_labels_),
                             0.0f);
  for (int i = 0; i < n; ++i) {
    for (int label : train_labels[static_cast<size_t>(task.train_ids[i])]) {
      if (label >= 0 && label < num_labels_) {
        targets[static_cast<size_t>(i) * static_cast<size_t>(num_labels_) +
                static_cast<size_t>(label)] = 1.0f;
      }
    }
  }
  std::vector<float> errors(static_cast<size_t>(n) *
                            static_cast<size_t>(num_labels_));
  for (int epoch = 0; epoch < options.surrogate_epochs; ++epoch) {
    // Forward errors for the whole batch: independent sigmoids (BCE) for
    // multi-label tasks, softmax (CE) for multiclass — matching the loss
    // geometry of the teacher head the surrogate mimics, so the argmax
    // decision boundaries line up much faster than all-sigmoid training.
    for (int i = 0; i < n; ++i) {
      const size_t base = static_cast<size_t>(i) *
                          static_cast<size_t>(num_labels_);
      for (int l = 0; l < num_labels_; ++l) {
        errors[base + static_cast<size_t>(l)] = Logit(task.train_ids[i], l);
      }
      if (multi_label_) {
        for (int l = 0; l < num_labels_; ++l) {
          const size_t e = base + static_cast<size_t>(l);
          errors[e] = Sigmoid(errors[e]) - targets[e];
        }
      } else {
        float max_z = errors[base];
        for (int l = 1; l < num_labels_; ++l) {
          max_z = std::max(max_z, errors[base + static_cast<size_t>(l)]);
        }
        float denom = 0.0f;
        for (int l = 0; l < num_labels_; ++l) {
          const size_t e = base + static_cast<size_t>(l);
          errors[e] = std::exp(errors[e] - max_z);
          denom += errors[e];
        }
        for (int l = 0; l < num_labels_; ++l) {
          const size_t e = base + static_cast<size_t>(l);
          errors[e] = errors[e] / denom - targets[e];
        }
      }
    }
    // Backward: w_l -= lr/n * sum_i err_il * x_i, over x_i's nonzeros.
    const float scale = kLearningRate / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      const size_t row = static_cast<size_t>(task.train_ids[i]);
      const int begin = nz_begin_[row];
      const int end = nz_begin_[row + 1];
      for (int l = 0; l < num_labels_; ++l) {
        const float step =
            scale * errors[static_cast<size_t>(i) *
                               static_cast<size_t>(num_labels_) +
                           static_cast<size_t>(l)];
        if (step == 0.0f) continue;
        float* w = weights_.data() +
                   static_cast<size_t>(l) * static_cast<size_t>(feature_dim_);
        for (int k = begin; k < end; ++k) {
          w[nz_index_[static_cast<size_t>(k)]] -=
              step * nz_value_[static_cast<size_t>(k)];
        }
      }
    }
  }
}

util::Status SurrogateModel::ScoreInto(int sample_id, Scratch* scratch,
                                       float* confidence) const {
  if (sample_id < 0 || sample_id >= num_samples_) {
    return util::Status::InvalidArgument("surrogate score: sample " +
                                         std::to_string(sample_id) +
                                         " out of range");
  }
  scratch->logits.resize(static_cast<size_t>(num_labels_));
  scratch->probs.resize(static_cast<size_t>(num_labels_));
  scratch->labels.clear();
  scratch->labels.reserve(static_cast<size_t>(num_labels_));
  for (int l = 0; l < num_labels_; ++l) {
    scratch->logits[static_cast<size_t>(l)] = Logit(sample_id, l);
  }
  // Probabilities under the head the model was trained as: sigmoids for
  // multi-label, softmax (max-subtracted) for multiclass. Argmax decoding
  // is identical either way; only the confidence calibration differs.
  if (multi_label_) {
    for (int l = 0; l < num_labels_; ++l) {
      scratch->probs[static_cast<size_t>(l)] =
          Sigmoid(scratch->logits[static_cast<size_t>(l)]);
    }
  } else {
    float max_z = scratch->logits[0];
    for (int l = 1; l < num_labels_; ++l) {
      max_z = std::max(max_z, scratch->logits[static_cast<size_t>(l)]);
    }
    float denom = 0.0f;
    for (int l = 0; l < num_labels_; ++l) {
      const float e = std::exp(scratch->logits[static_cast<size_t>(l)] - max_z);
      scratch->probs[static_cast<size_t>(l)] = e;
      denom += e;
    }
    const float inv = 1.0f / denom;
    for (int l = 0; l < num_labels_; ++l) {
      scratch->probs[static_cast<size_t>(l)] *= inv;
    }
  }
  // Decode exactly like the teacher (ExplainTiModel::DecodeLabels):
  // multi-label takes every p >= 0.5 with an argmax fallback, multiclass
  // takes the argmax.
  int argmax = 0;
  for (int l = 1; l < num_labels_; ++l) {
    if (scratch->probs[static_cast<size_t>(l)] >
        scratch->probs[static_cast<size_t>(argmax)]) {
      argmax = l;
    }
  }
  if (multi_label_) {
    for (int l = 0; l < num_labels_; ++l) {
      if (scratch->probs[static_cast<size_t>(l)] >= 0.5f) {
        scratch->labels.push_back(l);
      }
    }
    if (scratch->labels.empty()) scratch->labels.push_back(argmax);
    float certainty = 0.0f;
    for (int l = 0; l < num_labels_; ++l) {
      const float p = scratch->probs[static_cast<size_t>(l)];
      certainty += std::max(p, 1.0f - p);
    }
    *confidence = certainty / static_cast<float>(num_labels_);
  } else {
    scratch->labels.push_back(argmax);
    *confidence = scratch->probs[static_cast<size_t>(argmax)];
  }
  return util::Status::OK();
}

void SurrogateModel::AppendSaliency(int sample_id, int label, int max_items,
                                    int step,
                                    std::vector<QaEvidenceItem>* items) const {
  if (sample_id < 0 || sample_id >= num_samples_ || label < 0 ||
      label >= num_labels_ || max_items <= 0) {
    return;
  }
  const text::EncodedSequence& seq =
      task_->samples[static_cast<size_t>(sample_id)].seq;
  if (seq.ids.empty()) return;
  const float* w = weights_.data() +
                   static_cast<size_t>(label) * static_cast<size_t>(feature_dim_);
  const float inv = 1.0f / static_cast<float>(seq.ids.size());
  // Per-token contribution to this label's logit: the token's share of its
  // hashed bucket times the label weight on that bucket.
  std::vector<std::pair<float, int>> ranked;  // (contribution, position)
  ranked.reserve(seq.ids.size());
  for (size_t t = 0; t < seq.ids.size(); ++t) {
    const int id = seq.ids[t];
    float importance = 0.0f;
    if (auto it = token_importance_.find(id); it != token_importance_.end()) {
      importance = it->second;
    }
    const float contribution =
        w[id % kHashDim] * (1.0f + importance) * inv;
    if (contribution > 0.0f) {
      ranked.emplace_back(contribution, static_cast<int>(t));
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  int emitted = 0;
  std::vector<int> seen_ids;
  for (const auto& [contribution, pos] : ranked) {
    if (emitted >= max_items) break;
    const int id = seq.ids[static_cast<size_t>(pos)];
    if (std::find(seen_ids.begin(), seen_ids.end(), id) != seen_ids.end()) {
      continue;  // One item per distinct token.
    }
    seen_ids.push_back(id);
    QaEvidenceItem item;
    item.step = step;
    item.view = QaView::kSurrogate;
    item.score = contribution;
    item.text = pos < static_cast<int>(seq.tokens.size())
                    ? seq.tokens[static_cast<size_t>(pos)]
                    : std::to_string(id);
    items->push_back(std::move(item));
    ++emitted;
  }
}

}  // namespace explainti::qa
