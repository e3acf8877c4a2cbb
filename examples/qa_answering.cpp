// Explainable table-QA through the serving stack: pose structured
// queries ("what type is this column?", "which columns hold a type named
// 'person'?") against a trained model via InferenceServer's kQaAnswer
// method, and print the composed answer with its full justification —
// every step tagged with the prediction it came from, the tier that
// answered it (explanation-distilled surrogate vs the full teacher),
// and the LE/GE/SE evidence items backing it.

#include <cstdio>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "qa/query.h"
#include "serve/server.h"

using explainti::core::ExplainTiConfig;
using explainti::core::ExplainTiModel;
using explainti::core::TaskKind;
using namespace explainti::qa;
using namespace explainti::serve;

namespace {

void PrintAnswer(const QaAnswer& answer, const explainti::core::TaskData& task) {
  std::printf("answer: %d entr%s (%d surrogate step%s, %d escalated)\n",
              static_cast<int>(answer.entries.size()),
              answer.entries.size() == 1 ? "y" : "ies",
              answer.surrogate_steps, answer.surrogate_steps == 1 ? "" : "s",
              answer.escalated_steps);
  if (!answer.surrogate_status.ok()) {
    std::printf("  (surrogate tier down, teacher-only: %s)\n",
                answer.surrogate_status.ToString().c_str());
  }
  for (const QaAnswerEntry& entry : answer.entries) {
    std::printf("  column %d ->", entry.sample_id);
    for (int label : entry.labels) {
      std::printf(" %s", task.label_names[static_cast<size_t>(label)].c_str());
    }
    std::printf("  (confidence %.3f, step %d)\n", entry.confidence,
                entry.step);
  }
  std::printf("justification (%d steps, %d evidence items):\n",
              static_cast<int>(answer.justification.steps.size()),
              static_cast<int>(answer.justification.items.size()));
  for (const QaStep& step : answer.justification.steps) {
    std::printf("  step %d: %s on column %d via %s ->", step.step,
                explainti::core::TaskKindName(step.task), step.sample_id,
                QaTierName(step.tier));
    for (int label : step.predicted_labels) {
      std::printf(" %s", task.label_names[static_cast<size_t>(label)].c_str());
    }
    std::printf("  (confidence %.3f)%s\n", step.confidence,
                step.ann_degraded ? "  [ANN degraded]" : "");
    for (const QaEvidenceItem& item : answer.justification.items) {
      if (item.step != step.step) continue;
      std::printf("    [%s %.3f] %s\n", QaViewName(item.view), item.score,
                  item.text.c_str());
    }
  }
}

}  // namespace

int main() {
  explainti::data::WikiTableOptions data_options;
  data_options.num_tables = 120;
  explainti::data::TableCorpus corpus =
      explainti::data::GenerateWikiTableCorpus(data_options);

  ExplainTiConfig config;
  config.epochs = 10;
  ExplainTiModel model(config, corpus);
  model.Fit();

  // QA serving with the surrogate cascade armed: tables the distilled
  // first tier answers confidently never touch the transformer. Any
  // distillation or scoring failure fails closed to teacher-only
  // answers, so enabling the cascade never changes what is asserted.
  ServerOptions options;
  options.qa.enabled = true;
  options.qa.options.enable_surrogate = true;
  options.qa.options.confidence_threshold = 0.9f;
  InferenceServer server(model.session(), options);

  const auto& task = model.task_data(TaskKind::kType);

  // Point query: "what type is this column?"
  ServeRequest point;
  point.method = ServeMethod::kQaAnswer;
  point.qa.kind = QaQueryKind::kColumnType;
  point.qa.sample_ids = {0};
  ServeResponse response = server.ServeSync(point);
  if (!response.status.ok()) {
    std::printf("QA request failed: %s\n", response.status.ToString().c_str());
    return 1;
  }
  std::printf("== what type is column 0?\n");
  PrintAnswer(response.qa, task);

  // Find query: "which of these columns hold people?" — the type is
  // named as a user would write it and resolved to its label id.
  const auto person = ResolveLabel(task, "person");
  if (!person.ok()) {
    std::printf("%s\n", person.status().ToString().c_str());
    return 1;
  }
  ServeRequest find;
  find.method = ServeMethod::kQaAnswer;
  find.qa.kind = QaQueryKind::kFindColumnsOfType;
  find.qa.sample_ids = {0, 1, 2, 3, 4, 5, 6, 7};
  find.qa.label_id = *person;
  find.qa.top_k = 3;
  ServeResponse found = server.ServeSync(find);
  if (!found.status.ok()) {
    std::printf("QA request failed: %s\n", found.status.ToString().c_str());
    return 1;
  }
  std::printf("\n== which columns hold type \"%s\"? (top %d of %d)\n",
              task.label_names[static_cast<size_t>(find.qa.label_id)].c_str(),
              find.qa.top_k, static_cast<int>(find.qa.sample_ids.size()));
  PrintAnswer(found.qa, task);

  std::printf("\nserved %lld QA answers: %lld surrogate steps, "
              "%lld escalated\n",
              static_cast<long long>(
                  server.metrics().GetCounter("qa.answered")->Value()),
              static_cast<long long>(
                  server.metrics().GetCounter("qa.surrogate_answered")->Value()),
              static_cast<long long>(
                  server.metrics().GetCounter("qa.escalated")->Value()));
  return 0;
}
