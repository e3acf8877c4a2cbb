#ifndef EXPLAINTI_QA_ENGINE_H_
#define EXPLAINTI_QA_ENGINE_H_

#include <memory>

#include "core/inference_session.h"
#include "qa/query.h"
#include "qa/surrogate.h"
#include "util/status.h"

namespace explainti::qa {

/// Validates `query` against `session`: known kind, present task, in-range
/// candidate ids, canonical label_id/top_k for the kind. Shared by the
/// engine and by serve admission (which rejects bad queries before they
/// cost a batch slot).
util::Status ValidateQuery(const core::InferenceSession& session,
                           const QaQuery& query);

/// Table-QA composition engine plus cascade router over one frozen
/// session.
///
/// Answer() plans a query into the minimal set of session calls — one
/// PredictProbabilities per candidate (stage 1), one Explain per selected
/// answer entry (stage 2) — composes the QaAnswer, and assembles the
/// QaJustification from the teacher's LE/GE/SE views (or surrogate
/// saliency) with per-step provenance.
///
/// Cascade: when `options.enable_surrogate` is set, construction distils
/// one SurrogateModel per served task and stage 1 scores candidates there
/// first; scores at or above `options.confidence_threshold` are answered
/// at the surrogate tier, the rest escalate to the teacher. Fail-closed:
/// a distillation failure (e.g. `surrogate_epochs <= 0` or an empty
/// training split) keeps the engine teacher-only for its whole lifetime,
/// with the typed cause in surrogate_status(), so its answers are
/// bit-identical to a cascade-off build. A query that fails validation
/// is a typed error, never a partial answer.
///
/// Thread-safe after construction: Answer() is const, the engine holds
/// no mutable state, and the underlying session is already concurrent.
class QaEngine {
 public:
  /// `session` is borrowed and must outlive the engine (under serve each
  /// generation owns both, so they retire together).
  QaEngine(const core::InferenceSession* session, const QaOptions& options);

  QaEngine(const QaEngine&) = delete;
  QaEngine& operator=(const QaEngine&) = delete;

  /// Answers `query` at the configured confidence threshold.
  util::StatusOr<QaAnswer> Answer(const QaQuery& query) const;

  /// Answer with an explicit escalation threshold (bench threshold
  /// sweeps); cascade semantics otherwise identical to Answer().
  util::StatusOr<QaAnswer> AnswerWithThreshold(const QaQuery& query,
                                               float threshold) const;

  /// True when the surrogate tier is enabled and distilled.
  bool surrogate_active() const {
    return type_surrogate_ != nullptr || relation_surrogate_ != nullptr;
  }

  /// OK while healthy (or disabled by options); the typed distillation
  /// failure that routed the cascade 100% to the teacher otherwise.
  const util::Status& surrogate_status() const { return surrogate_status_; }

  /// The distilled surrogate for `kind`, or null (disabled, failed, or
  /// task absent). For bench agreement sweeps and tests; Answer() owns
  /// routing.
  const SurrogateModel* surrogate(core::TaskKind kind) const;

  const core::InferenceSession& session() const { return *session_; }

 private:
  const core::InferenceSession* session_;
  QaOptions options_;
  std::unique_ptr<SurrogateModel> type_surrogate_;
  std::unique_ptr<SurrogateModel> relation_surrogate_;
  /// Set once by the constructor.
  util::Status surrogate_status_;
};

}  // namespace explainti::qa

#endif  // EXPLAINTI_QA_ENGINE_H_
