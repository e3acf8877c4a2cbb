// Quickstart: train ExplainTI on a synthetic Web-table corpus, evaluate
// both table-interpretation tasks, and print a multi-view explanation for
// one test column.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "serve/server.h"
#include "util/timer.h"

using explainti::core::ExplainTiConfig;
using explainti::core::ExplainTiModel;
using explainti::core::Explanation;
using explainti::core::InferenceSession;
using explainti::core::TaskKind;

int main() {
  // 1. Generate a corpus of annotated Web tables (WikiTable stand-in).
  explainti::data::WikiTableOptions data_options;
  data_options.num_tables = 160;
  explainti::data::TableCorpus corpus =
      explainti::data::GenerateWikiTableCorpus(data_options);
  const auto stats = explainti::data::ComputeStatistics(corpus);
  std::printf("corpus: %lld tables, %lld type samples, %lld relation samples\n",
              static_cast<long long>(stats.num_tables),
              static_cast<long long>(stats.num_type_samples),
              static_cast<long long>(stats.num_relation_samples));

  // 2. Configure and train ExplainTI (pre-train + multi-task fine-tune).
  ExplainTiConfig config;
  config.base_model = "bert";
  config.epochs = 10;
  // Crash-safe training: an epoch-level checkpoint (CRC32-protected) lets
  // an interrupted run resume here; delete the file to retrain from
  // scratch. A corrupted checkpoint is detected and ignored.
  config.checkpoint_path = "/tmp/explainti_quickstart.ckpt";
  ExplainTiModel model(config, corpus);

  explainti::util::WallTimer timer;
  const auto fit = model.Fit();
  std::printf("trained in %.1fs (best valid F1-weighted %.3f at epoch %d)%s\n",
              timer.ElapsedSeconds(), fit.best_valid_f1, fit.best_epoch,
              fit.resumed ? " [resumed from checkpoint]" : "");
  if (fit.skipped_steps > 0 || fit.rollbacks > 0) {
    std::printf("recovered from %lld non-finite steps (%d rollbacks)\n",
                static_cast<long long>(fit.skipped_steps), fit.rollbacks);
  }

  // 3. Evaluate on the held-out test split. Serving goes through the
  // model's frozen InferenceSession: same forward, no autograd tape,
  // arena-recycled scratch buffers, safe to share across threads.
  const InferenceSession& session = model.session();
  const auto type_f1 =
      session.Evaluate(TaskKind::kType, explainti::data::SplitPart::kTest);
  const auto rel_f1 =
      session.Evaluate(TaskKind::kRelation, explainti::data::SplitPart::kTest);
  std::printf("column type     : F1-micro %.3f  F1-macro %.3f  F1-w %.3f\n",
              type_f1.micro, type_f1.macro, type_f1.weighted);
  std::printf("column relation : F1-micro %.3f  F1-macro %.3f  F1-w %.3f\n",
              rel_f1.micro, rel_f1.macro, rel_f1.weighted);

  // 4. Explain one prediction with all three views.
  const auto& task = model.task_data(TaskKind::kType);
  const int sample_id = task.test_ids.front();
  const Explanation z = session.Explain(TaskKind::kType, sample_id);

  std::printf("\nsample: %s\n", task.SampleText(sample_id).c_str());
  std::printf("prediction:");
  for (int label : z.predicted_labels) {
    std::printf(" %s", task.label_names[static_cast<size_t>(label)].c_str());
  }
  std::printf("\n");
  if (!z.local.empty()) {
    std::printf("local  (RS %.3f): \"%s\"\n", z.local[0].relevance,
                z.local[0].text.c_str());
  }
  if (!z.global.empty()) {
    std::printf("global (IS %.3f): \"%s\"\n", z.global[0].influence,
                z.global[0].text.c_str());
  }
  if (!z.structural.empty()) {
    std::printf("structural (AS %.3f, via %s): \"%s\"\n",
                z.structural[0].attention,
                explainti::graph::BridgeKindName(z.structural[0].via),
                z.structural[0].text.c_str());
  }
  if (!z.degradation_note.empty()) {
    std::printf("note: %s\n", z.degradation_note.c_str());
  }

  // 5. Serve under load: the InferenceServer wraps the same session in a
  // bounded admission queue + dynamic micro-batcher + worker pool.
  // Requests carry monotonic deadlines; batching never changes numerics
  // (responses are bit-identical to the direct session calls above).
  explainti::serve::ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.batcher.max_batch_size = 8;
  explainti::serve::InferenceServer server(session, server_options);

  explainti::serve::ServeRequest request;
  request.method = explainti::serve::ServeMethod::kPredict;
  request.task = TaskKind::kType;
  request.sample_id = sample_id;
  request.deadline_us = explainti::util::DeadlineAfterUs(100'000);  // 100ms.
  const explainti::serve::ServeResponse response = server.ServeSync(request);
  if (response.status.ok()) {
    std::printf("\nserved prediction (batch of %d, %lldus end-to-end):",
                response.batch_size,
                static_cast<long long>(response.total_us));
    for (int label : response.labels) {
      std::printf(" %s", task.label_names[static_cast<size_t>(label)].c_str());
    }
    std::printf("\n");
  } else {
    std::printf("\nrequest shed: %s\n", response.status.ToString().c_str());
  }
  server.Shutdown();  // Graceful drain; also implied by the destructor.
  std::printf("server metrics: %s\n", server.metrics().ToJson().c_str());
  return 0;
}
