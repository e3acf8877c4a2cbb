#ifndef EXPLAINTI_QA_QUERY_H_
#define EXPLAINTI_QA_QUERY_H_

#include <string>
#include <vector>

#include "core/task_data.h"
#include "util/status.h"

namespace explainti::qa {

/// The structured table-QA queries the composition layer answers by
/// planning them into column-type / column-relation predictions.
enum class QaQueryKind {
  /// "What is the type of this column?" — one type sample.
  kColumnType = 0,
  /// "Which of these columns is a <label>?" — candidate type samples
  /// filtered by a target type label.
  kFindColumnsOfType = 1,
  /// "How are the columns of this pair related?" — one relation sample.
  kRelationBetween = 2,
  /// "Which of these pairs express <label>?" — candidate relation
  /// samples filtered by a target relation label (label_id = -1 answers
  /// "how is each pair related?" instead: every candidate qualifies with
  /// its own top relation).
  kFindRelatedPairs = 3,
};

/// Short human-readable name for `kind` (e.g. "ColumnType").
const char* QaQueryKindName(QaQueryKind kind);

/// The task a query kind plans into.
core::TaskKind QaTaskOf(QaQueryKind kind);

/// One structured query. `sample_ids` is the candidate scope — the type
/// (or relation) samples the query ranges over: a single sample for the
/// point kinds (kColumnType / kRelationBetween), the columns or pairs of
/// one table (or any caller-chosen set) for the kFind* kinds. Scoping by
/// explicit sample ids keeps planning deterministic and generation-local:
/// ids are resolved against the answering session's task data, exactly
/// like every other serve method.
struct QaQuery {
  QaQueryKind kind = QaQueryKind::kColumnType;
  std::vector<int> sample_ids;
  /// Target label for the kFind* kinds; -1 means "any" (only valid for
  /// kFindRelatedPairs). Resolve names with ResolveLabel().
  int label_id = -1;
  /// Answer-entry cap for the kFind* kinds (highest-confidence first).
  int top_k = 3;
};

/// True when `a` and `b` are the same query (used by the serving cache to
/// verify an entry before serving it).
bool SameQuery(const QaQuery& a, const QaQuery& b);

/// Label id for `name` in `task`'s label space, or kNotFound.
util::StatusOr<int> ResolveLabel(const core::TaskData& task,
                                 const std::string& name);

/// Which tier produced a composed prediction step.
enum class QaTier {
  kTeacher = 0,    ///< Full InferenceSession (transformer + explanation tail).
  kSurrogate = 1,  ///< Explanation-distilled linear surrogate.
};

const char* QaTierName(QaTier tier);

/// Which explanation view a justification item was assembled from.
enum class QaView {
  kLocal = 0,       ///< LE attention window (RS score).
  kGlobal = 1,      ///< GE retrieved influential training sample (IS).
  kStructural = 2,  ///< SE graph neighbour (AS score).
  kSurrogate = 3,   ///< Surrogate feature saliency (weight * feature).
};

const char* QaViewName(QaView view);

/// One constituent prediction an answer was composed from — the
/// provenance unit: which call, on which sample, from which tier, with
/// what confidence.
struct QaStep {
  int step = -1;  ///< Index of this step within the justification.
  core::TaskKind task = core::TaskKind::kType;
  int sample_id = -1;
  QaTier tier = QaTier::kTeacher;
  std::vector<int> predicted_labels;
  /// Probability of the label this step contributed to the answer (the
  /// target label for kFind* queries, the top label otherwise).
  float confidence = 0.0f;
  std::string note;  ///< Degradation note; empty when healthy.
};

/// One evidence item of a composed justification, tagged with its source
/// step and view so every line of the answer is auditable end to end.
struct QaEvidenceItem {
  int step = -1;       ///< Index into QaJustification::steps.
  QaView view = QaView::kLocal;
  float score = 0.0f;  ///< RS / IS / AS, or surrogate contribution.
  std::string text;
};

/// The composed, provenance-tagged justification returned with every
/// answer: the constituent prediction steps plus the evidence items
/// assembled from their LE/GE/SE views (or surrogate saliency).
struct QaJustification {
  std::vector<QaStep> steps;
  /// Step-major, view order LE -> GE -> SE (surrogate steps contribute
  /// kSurrogate items), per-view scores descending.
  std::vector<QaEvidenceItem> items;
};

/// One answered sample: which sample, the labels the answer asserts for
/// it, the confidence backing it, and the justification step it cites.
struct QaAnswerEntry {
  int sample_id = -1;
  std::vector<int> labels;
  float confidence = 0.0f;
  int step = -1;  ///< Provenance: index into justification.steps.
};

/// The full answer envelope. `entries`/`justification` are the answer
/// proper (bit-identical across cascade-off and fail-closed teacher-only
/// builds — see SameAnswer); the tier counters and surrogate_status are
/// serving telemetry.
struct QaAnswer {
  QaQuery query;
  /// Highest confidence first for kFind* queries; single entry for the
  /// point kinds. Empty when no candidate qualified (an honest "none").
  std::vector<QaAnswerEntry> entries;
  QaJustification justification;
  // -- Telemetry (not part of answer identity) ---------------------------
  int surrogate_steps = 0;  ///< Steps answered by the surrogate tier.
  int escalated_steps = 0;  ///< Steps escalated surrogate -> teacher.
  /// OK while the surrogate tier is healthy (or disabled); the typed
  /// reason the cascade routed 100% to the teacher otherwise.
  util::Status surrogate_status;
};

/// Bitwise answer identity: query, entries and justification (floats
/// compared exactly). Telemetry (tier counters, surrogate_status) is
/// deliberately excluded — an answer from an engine whose distillation
/// failed must equal the cascade-off answer even though its telemetry
/// explains why the surrogate tier is absent.
bool SameAnswer(const QaAnswer& a, const QaAnswer& b);

}  // namespace explainti::qa

#endif  // EXPLAINTI_QA_QUERY_H_
