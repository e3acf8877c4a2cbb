#include "qa/engine.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace explainti::qa {

namespace {

/// Argmax with first-max tie-breaking, matching std::max_element (and
/// therefore ExplainTiModel::DecodeLabels).
int ArgMax(const std::vector<float>& v) {
  int best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<size_t>(best)]) best = static_cast<int>(i);
  }
  return best;
}

/// Mirrors ExplainTiModel::DecodeLabels over the probability vector
/// PredictProbabilities returns (softmax is monotone in the logits, so
/// multiclass argmax agrees bit-for-bit with Predict).
std::vector<int> DecodeFromProbs(bool multi_label,
                                 const std::vector<float>& probs) {
  std::vector<int> labels;
  if (multi_label) {
    for (size_t i = 0; i < probs.size(); ++i) {
      if (probs[i] >= 0.5f) labels.push_back(static_cast<int>(i));
    }
    if (labels.empty()) labels.push_back(ArgMax(probs));
  } else {
    labels.push_back(ArgMax(probs));
  }
  return labels;
}

bool IsFindKind(QaQueryKind kind) {
  return kind == QaQueryKind::kFindColumnsOfType ||
         kind == QaQueryKind::kFindRelatedPairs;
}

/// One stage-1 scored candidate, before selection.
struct ScoredCandidate {
  int sample_id = -1;
  QaTier tier = QaTier::kTeacher;
  std::vector<int> labels;
  std::vector<float> probs;
  float confidence = 0.0f;  ///< Probability backing the (target) label.
  bool qualifies = false;
  bool escalated = false;   ///< Surrogate scored below threshold.
};

}  // namespace

util::Status ValidateQuery(const core::InferenceSession& session,
                           const QaQuery& query) {
  switch (query.kind) {
    case QaQueryKind::kColumnType:
    case QaQueryKind::kFindColumnsOfType:
    case QaQueryKind::kRelationBetween:
    case QaQueryKind::kFindRelatedPairs:
      break;
    default:
      return util::Status::InvalidArgument("qa: unknown query kind");
  }
  const core::TaskKind task_kind = QaTaskOf(query.kind);
  if (!session.HasTask(task_kind)) {
    return util::Status::InvalidArgument(
        std::string("qa: session has no ") + core::TaskKindName(task_kind) +
        " task");
  }
  const core::TaskData& task = session.task_data(task_kind);
  if (query.sample_ids.empty()) {
    return util::Status::InvalidArgument("qa: query has no candidate samples");
  }
  const bool find = IsFindKind(query.kind);
  if (!find && query.sample_ids.size() != 1) {
    return util::Status::InvalidArgument(
        std::string("qa: ") + QaQueryKindName(query.kind) +
        " takes exactly one sample, got " +
        std::to_string(query.sample_ids.size()));
  }
  for (int id : query.sample_ids) {
    if (id < 0 || id >= static_cast<int>(task.samples.size())) {
      return util::Status::InvalidArgument(
          "qa: sample " + std::to_string(id) + " out of range for " +
          core::TaskKindName(task_kind) + " task");
    }
  }
  if (!find) {
    if (query.label_id != -1) {
      return util::Status::InvalidArgument(
          std::string("qa: ") + QaQueryKindName(query.kind) +
          " does not take a target label");
    }
  } else {
    const int lo = query.kind == QaQueryKind::kFindRelatedPairs ? -1 : 0;
    if (query.label_id < lo || query.label_id >= task.num_labels) {
      return util::Status::InvalidArgument(
          "qa: target label " + std::to_string(query.label_id) +
          " out of range for " + core::TaskKindName(task_kind) + " task");
    }
    if (query.top_k < 1) {
      return util::Status::InvalidArgument("qa: top_k must be >= 1");
    }
  }
  return util::Status::OK();
}

QaEngine::QaEngine(const core::InferenceSession* session,
                   const QaOptions& options)
    : session_(session), options_(options) {
  if (!options_.enable_surrogate) return;
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    if (!session_->HasTask(kind)) continue;
    auto built = SurrogateModel::Distill(*session_, kind, options_);
    if (!built.ok()) {
      // Fail closed: no surrogate tier at all (a half-armed cascade would
      // answer one task cheaply and silently refuse the other).
      LOG(WARNING) << "qa: surrogate distillation failed, serving "
                      "teacher-only: "
                   << built.status().ToString();
      surrogate_status_ = built.status();
      type_surrogate_.reset();
      relation_surrogate_.reset();
      return;
    }
    if (kind == core::TaskKind::kType) {
      type_surrogate_ = std::move(built).value();
    } else {
      relation_surrogate_ = std::move(built).value();
    }
  }
}

const SurrogateModel* QaEngine::surrogate(core::TaskKind kind) const {
  return kind == core::TaskKind::kType ? type_surrogate_.get()
                                       : relation_surrogate_.get();
}

util::StatusOr<QaAnswer> QaEngine::Answer(const QaQuery& query) const {
  return AnswerWithThreshold(query, options_.confidence_threshold);
}

util::StatusOr<QaAnswer> QaEngine::AnswerWithThreshold(const QaQuery& query,
                                                       float threshold) const {
  if (auto s = ValidateQuery(*session_, query); !s.ok()) return s;
  const core::TaskKind task_kind = QaTaskOf(query.kind);
  const core::TaskData& task = session_->task_data(task_kind);
  const bool find = IsFindKind(query.kind);
  const SurrogateModel* surrogate = this->surrogate(task_kind);

  // Stage 1: score every candidate — surrogate first when armed for this
  // task, escalating below-threshold scores to the teacher.
  std::vector<ScoredCandidate> scored;
  scored.reserve(query.sample_ids.size());
  SurrogateModel::Scratch scratch;
  for (int id : query.sample_ids) {
    ScoredCandidate c;
    c.sample_id = id;
    bool need_teacher = true;
    if (surrogate != nullptr) {
      float confidence = 0.0f;
      // ValidateQuery range-checked `id` against the same samples, so
      // this cannot fail for a validated query; if it ever does, the
      // answer is a typed error, never a partial one.
      if (auto s = surrogate->ScoreInto(id, &scratch, &confidence); !s.ok()) {
        return s;
      }
      if (confidence >= threshold) {
        c.tier = QaTier::kSurrogate;
        c.labels = scratch.labels;
        c.probs = scratch.probs;
        need_teacher = false;
      } else {
        c.escalated = true;
      }
    }
    if (need_teacher) {
      c.tier = QaTier::kTeacher;
      c.probs = session_->PredictProbabilities(task_kind, id);
      c.labels = DecodeFromProbs(task.multi_label, c.probs);
    }
    // Qualification + the confidence the answer cites.
    if (!find) {
      c.qualifies = true;
      c.confidence = c.probs[static_cast<size_t>(c.labels.front())];
      for (int label : c.labels) {
        c.confidence = std::max(c.confidence,
                                c.probs[static_cast<size_t>(label)]);
      }
    } else if (query.label_id < 0) {
      // "Any relation": every candidate qualifies with its top label.
      c.qualifies = true;
      c.confidence = c.probs[static_cast<size_t>(c.labels.front())];
    } else {
      c.confidence = c.probs[static_cast<size_t>(query.label_id)];
      c.qualifies = task.multi_label
                        ? c.confidence >= 0.5f
                        : std::find(c.labels.begin(), c.labels.end(),
                                    query.label_id) != c.labels.end();
    }
    scored.push_back(std::move(c));
  }

  // Selection: qualified candidates by confidence (desc), sample id as the
  // deterministic tie-break, truncated to top_k for find queries.
  std::vector<int> selected;  // Indices into `scored`.
  for (size_t i = 0; i < scored.size(); ++i) {
    if (scored[i].qualifies) selected.push_back(static_cast<int>(i));
  }
  std::sort(selected.begin(), selected.end(), [&scored](int a, int b) {
    const ScoredCandidate& ca = scored[static_cast<size_t>(a)];
    const ScoredCandidate& cb = scored[static_cast<size_t>(b)];
    if (ca.confidence != cb.confidence) return ca.confidence > cb.confidence;
    return ca.sample_id < cb.sample_id;
  });
  if (find && static_cast<int>(selected.size()) > query.top_k) {
    selected.resize(static_cast<size_t>(query.top_k));
  }

  // Compose the answer: one provenance step per evaluated candidate (so
  // rejections are auditable too), evidence items only for selected steps
  // (stage 2 — the only Explain calls the plan pays for).
  QaAnswer answer;
  answer.query = query;
  answer.justification.steps.reserve(scored.size());
  for (size_t i = 0; i < scored.size(); ++i) {
    QaStep step;
    step.step = static_cast<int>(i);
    step.task = task_kind;
    step.sample_id = scored[i].sample_id;
    step.tier = scored[i].tier;
    step.predicted_labels = scored[i].labels;
    step.confidence = scored[i].confidence;
    if (scored[i].tier == QaTier::kSurrogate) {
      ++answer.surrogate_steps;
    } else if (scored[i].escalated) {
      ++answer.escalated_steps;
    }
    answer.justification.steps.push_back(std::move(step));
  }
  for (int idx : selected) {
    const ScoredCandidate& c = scored[static_cast<size_t>(idx)];
    QaAnswerEntry entry;
    entry.sample_id = c.sample_id;
    entry.labels = c.labels;
    entry.confidence = c.confidence;
    entry.step = idx;
    answer.entries.push_back(std::move(entry));

    if (c.tier == QaTier::kSurrogate) {
      const int target =
          find && query.label_id >= 0 ? query.label_id : c.labels.front();
      surrogate->AppendSaliency(c.sample_id, target, options_.max_local_items,
                                idx, &answer.justification.items);
      continue;
    }
    const core::Explanation exp =
        session_->Explain(task_kind, c.sample_id);
    QaStep& step = answer.justification.steps[static_cast<size_t>(idx)];
    step.ann_degraded = exp.ann_degraded;
    step.note = exp.degradation_note;
    const int n_local =
        std::min<int>(options_.max_local_items,
                      static_cast<int>(exp.local.size()));
    for (int i = 0; i < n_local; ++i) {
      QaEvidenceItem item;
      item.step = idx;
      item.view = QaView::kLocal;
      item.score = exp.local[static_cast<size_t>(i)].relevance;
      item.text = exp.local[static_cast<size_t>(i)].text;
      answer.justification.items.push_back(std::move(item));
    }
    const int n_global =
        std::min<int>(options_.max_global_items,
                      static_cast<int>(exp.global.size()));
    for (int i = 0; i < n_global; ++i) {
      QaEvidenceItem item;
      item.step = idx;
      item.view = QaView::kGlobal;
      item.score = exp.global[static_cast<size_t>(i)].influence;
      item.text = exp.global[static_cast<size_t>(i)].text;
      answer.justification.items.push_back(std::move(item));
    }
    const int n_structural =
        std::min<int>(options_.max_structural_items,
                      static_cast<int>(exp.structural.size()));
    for (int i = 0; i < n_structural; ++i) {
      QaEvidenceItem item;
      item.step = idx;
      item.view = QaView::kStructural;
      item.score = exp.structural[static_cast<size_t>(i)].attention;
      item.text = exp.structural[static_cast<size_t>(i)].text;
      answer.justification.items.push_back(std::move(item));
    }
  }
  answer.surrogate_status = surrogate_status_;
  return answer;
}

}  // namespace explainti::qa
