#include "qa/query.h"

#include <cstddef>

namespace explainti::qa {

const char* QaQueryKindName(QaQueryKind kind) {
  switch (kind) {
    case QaQueryKind::kColumnType:
      return "ColumnType";
    case QaQueryKind::kFindColumnsOfType:
      return "FindColumnsOfType";
    case QaQueryKind::kRelationBetween:
      return "RelationBetween";
    case QaQueryKind::kFindRelatedPairs:
      return "FindRelatedPairs";
  }
  return "Unknown";
}

core::TaskKind QaTaskOf(QaQueryKind kind) {
  switch (kind) {
    case QaQueryKind::kColumnType:
    case QaQueryKind::kFindColumnsOfType:
      return core::TaskKind::kType;
    case QaQueryKind::kRelationBetween:
    case QaQueryKind::kFindRelatedPairs:
      return core::TaskKind::kRelation;
  }
  return core::TaskKind::kType;
}

const char* QaTierName(QaTier tier) {
  switch (tier) {
    case QaTier::kTeacher:
      return "teacher";
    case QaTier::kSurrogate:
      return "surrogate";
  }
  return "unknown";
}

const char* QaViewName(QaView view) {
  switch (view) {
    case QaView::kLocal:
      return "LE";
    case QaView::kGlobal:
      return "GE";
    case QaView::kStructural:
      return "SE";
    case QaView::kSurrogate:
      return "surrogate";
  }
  return "unknown";
}

bool SameQuery(const QaQuery& a, const QaQuery& b) {
  return a.kind == b.kind && a.label_id == b.label_id && a.top_k == b.top_k &&
         a.sample_ids == b.sample_ids;
}

util::StatusOr<int> ResolveLabel(const core::TaskData& task,
                                 const std::string& name) {
  for (size_t i = 0; i < task.label_names.size(); ++i) {
    if (task.label_names[i] == name) return static_cast<int>(i);
  }
  return util::Status::NotFound("no label named '" + name + "' in " +
                                std::string(core::TaskKindName(task.kind)) +
                                " task");
}

namespace {

bool SameStep(const QaStep& a, const QaStep& b) {
  return a.step == b.step && a.task == b.task && a.sample_id == b.sample_id &&
         a.tier == b.tier && a.predicted_labels == b.predicted_labels &&
         a.confidence == b.confidence && a.note == b.note;
}

bool SameItem(const QaEvidenceItem& a, const QaEvidenceItem& b) {
  return a.step == b.step && a.view == b.view && a.score == b.score &&
         a.text == b.text;
}

bool SameEntry(const QaAnswerEntry& a, const QaAnswerEntry& b) {
  return a.sample_id == b.sample_id && a.labels == b.labels &&
         a.confidence == b.confidence && a.step == b.step;
}

}  // namespace

bool SameAnswer(const QaAnswer& a, const QaAnswer& b) {
  if (!SameQuery(a.query, b.query)) return false;
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    if (!SameEntry(a.entries[i], b.entries[i])) return false;
  }
  if (a.justification.steps.size() != b.justification.steps.size()) {
    return false;
  }
  for (size_t i = 0; i < a.justification.steps.size(); ++i) {
    if (!SameStep(a.justification.steps[i], b.justification.steps[i])) {
      return false;
    }
  }
  if (a.justification.items.size() != b.justification.items.size()) {
    return false;
  }
  for (size_t i = 0; i < a.justification.items.size(); ++i) {
    if (!SameItem(a.justification.items[i], b.justification.items[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace explainti::qa
