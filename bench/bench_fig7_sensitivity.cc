// Reproduces paper Figure 7: sensitivity analysis on WikiTable —
//  (a,b) loss weights alpha/beta in {0.05..0.50};
//  (c,d) SE neighbour sample size r in {1..32};
//  (e,f) LE window size k in {2..10} (ExplainTI-LE sufficiency);
//  (g,h) top-K local explanations K in {1..10} (sufficiency, one model).
//
// Select a sweep with --sweep=alpha_beta|r|k|topk or run all by default.
// Sweeps use the reduced sweep scale (17 trainings total).
//
// Expected shape: F1 flat across alpha/beta; r rises then dips slightly
// (over-smoothing); LE sufficiency degrades slowly as k or K shrink.

#include <cstring>
#include <iostream>

#include "bench/bench_common.h"
#include "core/inference_session.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace explainti;

namespace {

data::TableCorpus SweepCorpus(const bench::Scale& scale) {
  data::WikiTableOptions options;
  options.num_tables = scale.sweep_tables;
  return data::GenerateWikiTableCorpus(options);
}

core::ExplainTiConfig SweepConfig(const bench::Scale& scale) {
  core::ExplainTiConfig config = bench::MakeExplainTiConfig(scale, "bert");
  config.epochs = scale.sweep_epochs;
  return config;
}

void SweepAlphaBeta(const bench::Scale& scale,
                    const data::TableCorpus& corpus) {
  util::TablePrinter printer(
      {"alpha=beta", "Type F1w (a)", "Relation F1w (b)"});
  for (float weight : {0.05f, 0.10f, 0.15f, 0.20f, 0.25f, 0.50f}) {
    core::ExplainTiConfig config = SweepConfig(scale);
    config.alpha = weight;
    config.beta = weight;
    core::ExplainTiModel model(config, corpus);
    model.Fit();
    printer.AddRow(
        {util::FormatDouble(weight, 2),
         bench::F3(model.session().Evaluate(core::TaskKind::kType,
                                            data::SplitPart::kTest).weighted),
         bench::F3(model.session().Evaluate(core::TaskKind::kRelation,
                                            data::SplitPart::kTest).weighted)});
    std::cerr << "[fig7] alpha=beta=" << weight << " done\n";
  }
  std::cout << "--- Figure 7(a,b): sensitivity to loss weights ---\n";
  printer.Print(std::cout);
  std::cout << "paper: flat across all settings.\n\n";
}

void SweepSampleSize(const bench::Scale& scale,
                     const data::TableCorpus& corpus) {
  util::TablePrinter printer({"r", "Type F1w (c)", "Relation F1w (d)"});
  for (int r : {1, 2, 4, 8, 16, 32}) {
    core::ExplainTiConfig config = SweepConfig(scale);
    config.sample_size = r;
    core::ExplainTiModel model(config, corpus);
    model.Fit();
    printer.AddRow(
        {std::to_string(r),
         bench::F3(model.session().Evaluate(core::TaskKind::kType,
                                            data::SplitPart::kTest).weighted),
         bench::F3(model.session().Evaluate(core::TaskKind::kRelation,
                                            data::SplitPart::kTest).weighted)});
    std::cerr << "[fig7] r=" << r << " done\n";
  }
  std::cout << "--- Figure 7(c,d): sensitivity to SE sample size r ---\n";
  printer.Print(std::cout);
  std::cout << "paper: rises with r, then dips slightly past r=16 "
               "(over-smoothing).\n\n";
}

/// LE sufficiency of a trained model with top-`top_k` windows.
eval::F1Scores LeSufficiency(const core::ExplainTiModel& model,
                             core::TaskKind kind, int top_k) {
  const core::TaskData& task = model.task_data(kind);
  const eval::ExplanationDataset dataset = bench::BuildExplanationDataset(
      task, [&](int id) {
        const core::Explanation z = model.Explain(kind, id);
        std::vector<std::string> texts;
        for (size_t i = 0; i < z.local.size() &&
                           static_cast<int>(i) < top_k; ++i) {
          texts.push_back(z.local[i].text);
        }
        return util::Join(texts, " ");
      });
  return eval::EvaluateSufficiency(dataset);
}

void SweepWindowSize(const bench::Scale& scale,
                     const data::TableCorpus& corpus) {
  util::TablePrinter printer(
      {"k", "LE suff. Type F1w (e)", "LE suff. Relation F1w (f)"});
  for (int k : {2, 4, 6, 8, 10}) {
    core::ExplainTiConfig config = SweepConfig(scale);
    config.window_size = k;
    core::ExplainTiModel model(config, corpus);
    model.Fit();
    printer.AddRow(
        {std::to_string(k),
         bench::F3(LeSufficiency(model, core::TaskKind::kType, 3).weighted),
         bench::F3(
             LeSufficiency(model, core::TaskKind::kRelation, 3).weighted)});
    std::cerr << "[fig7] k=" << k << " done\n";
  }
  std::cout << "--- Figure 7(e,f): LE sufficiency vs window size k ---\n";
  printer.Print(std::cout);
  std::cout << "paper: drops slowly as k decreases (LE robust to k).\n\n";
}

void SweepTopK(const bench::Scale& scale, const data::TableCorpus& corpus) {
  // One trained model; only the number of explanation units varies.
  core::ExplainTiModel model(SweepConfig(scale), corpus);
  model.Fit();
  util::TablePrinter printer(
      {"K", "LE suff. Type F1w (g)", "LE suff. Relation F1w (h)"});
  for (int top_k : {1, 2, 3, 5, 10}) {
    printer.AddRow(
        {std::to_string(top_k),
         bench::F3(
             LeSufficiency(model, core::TaskKind::kType, top_k).weighted),
         bench::F3(LeSufficiency(model, core::TaskKind::kRelation, top_k)
                       .weighted)});
    std::cerr << "[fig7] K=" << top_k << " done\n";
  }
  std::cout << "--- Figure 7(g,h): LE sufficiency vs top-K ---\n";
  printer.Print(std::cout);
  std::cout << "paper: drops slowly as K decreases; top-1 remains "
               "competitive.\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::GetScale();
  std::string sweep = "all";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep=", 8) == 0) sweep = argv[i] + 8;
  }
  std::cerr << "[fig7] scale=" << scale.name << " sweep=" << sweep << "\n";
  const data::TableCorpus corpus = SweepCorpus(scale);

  std::cout << "=== Figure 7: sensitivity analysis (WikiTable, sweep scale: "
            << scale.sweep_tables << " tables, " << scale.sweep_epochs
            << " epochs) ===\n";
  if (sweep == "all" || sweep == "alpha_beta") SweepAlphaBeta(scale, corpus);
  if (sweep == "all" || sweep == "r") SweepSampleSize(scale, corpus);
  if (sweep == "all" || sweep == "k") SweepWindowSize(scale, corpus);
  if (sweep == "all" || sweep == "topk") SweepTopK(scale, corpus);
  return 0;
}
