// Reproduces paper Figure 5: plausibility (adequate justification and
// understandability, % of judge votes) and trustability (mean 1-5 trust
// score) of each method's explanations, scored by the simulated-judge
// model (50 judges; substitution for the paper's human study, DESIGN.md).
//
// Expected shape: ExplainTI clearly ahead of SelfExplain, which is ahead
// of Influence Functions and Saliency Map.
//
// It also reproduces the paper's online simulation (Section IV-C): the
// verification-time model of eval/human_sim.h runs over the same ExplainTI
// explanations, per task. The paper reports ~19% less verification time
// with explanations.

#include <iostream>

#include "baselines/doduo.h"
#include "baselines/posthoc.h"
#include "baselines/self_explain.h"
#include "bench/bench_common.h"
#include "eval/human_sim.h"
#include "util/string_util.h"
#include "util/table_printer.h"

using namespace explainti;

namespace {

constexpr int kNumJudges = 50;
constexpr int kSamplesPerTask = 160;  // Paper: 960 samples over two tasks.

bool PredictionCorrect(const std::vector<int>& predicted,
                       const std::vector<int>& gold) {
  for (int p : predicted) {
    for (int g : gold) {
      if (p == g) return true;
    }
  }
  return false;
}

}  // namespace

int main() {
  const bench::Scale scale = bench::GetScale();
  std::cerr << "[fig5] scale=" << scale.name << "\n";
  const data::TableCorpus wiki = bench::MakeWikiCorpus(scale);

  core::ExplainTiModel explain_ti(
      bench::MakeExplainTiConfig(scale, "roberta"), wiki);
  explain_ti.Fit();
  std::cerr << "[fig5] ExplainTI fitted\n";
  auto doduo =
      baselines::MakeDoduo(bench::MakeBaselineConfig(scale, "roberta"));
  doduo->Fit(wiki);
  auto self_explain = baselines::MakeSelfExplain(
      bench::MakeBaselineConfig(scale, "roberta"));
  self_explain->Fit(wiki);
  std::cerr << "[fig5] hosts fitted\n";

  const std::vector<std::string> methods = {
      "Saliency Map", "Influence Functions", "SelfExplain", "ExplainTI"};
  std::vector<std::vector<eval::JudgedExplanation>> judged(methods.size());
  // ExplainTI's judged explanations again, split by task (index = kind).
  std::vector<eval::JudgedExplanation> explain_ti_by_task[2];

  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    const core::TaskData& task = explain_ti.task_data(kind);
    baselines::InfluenceFunctions influence(*doduo, kind);
    int used = 0;
    for (int id : task.test_ids) {
      if (used++ >= kSamplesPerTask) break;
      const core::TaskSample& sample =
          task.samples[static_cast<size_t>(id)];
      const int tokens = static_cast<int>(sample.seq.ids.size());

      // Saliency Map: ten isolated tokens.
      {
        eval::JudgedExplanation j;
        j.items = baselines::SaliencyExplanation(*doduo, kind, id, 10);
        j.evidence = sample.evidence;
        j.prediction_correct =
            PredictionCorrect(doduo->Predict(kind, id), sample.labels);
        j.sample_tokens = tokens;
        judged[0].push_back(std::move(j));
      }
      // Influence Functions: one whole training sample.
      {
        eval::JudgedExplanation j;
        const std::vector<int> top = influence.TopInfluential(id, 1);
        if (!top.empty()) j.items.push_back(influence.ExplanationText(top[0]));
        j.evidence = sample.evidence;
        j.prediction_correct =
            PredictionCorrect(doduo->Predict(kind, id), sample.labels);
        j.sample_tokens = tokens;
        judged[1].push_back(std::move(j));
      }
      // SelfExplain: top local chunks + top global sample.
      {
        eval::JudgedExplanation j;
        j.items = self_explain->TopLocalChunks(kind, id, 2);
        for (int train_id : self_explain->TopGlobalSamples(kind, id, 1)) {
          j.items.push_back(
              self_explain->task_data(kind).SampleText(train_id));
        }
        j.evidence = sample.evidence;
        j.prediction_correct = PredictionCorrect(
            self_explain->Predict(kind, id), sample.labels);
        j.sample_tokens = tokens;
        judged[2].push_back(std::move(j));
      }
      // ExplainTI: multi-view — top window, top retrieved, top neighbour.
      {
        const core::Explanation z = explain_ti.Explain(kind, id);
        eval::JudgedExplanation j;
        if (!z.local.empty()) j.items.push_back(z.local[0].text);
        if (!z.global.empty()) j.items.push_back(z.global[0].text);
        if (!z.structural.empty()) j.items.push_back(z.structural[0].text);
        j.evidence = sample.evidence;
        j.prediction_correct =
            PredictionCorrect(z.predicted_labels, sample.labels);
        j.sample_tokens = tokens;
        explain_ti_by_task[static_cast<int>(kind)].push_back(j);
        judged[3].push_back(std::move(j));
      }
    }
  }

  util::TablePrinter printer({"Method", "Adequacy %", "Understandability %",
                              "Mean trust (1-5)", "Evidence coverage"});
  for (size_t m = 0; m < methods.size(); ++m) {
    const eval::HumanEvalResult result =
        eval::SimulateJudges(judged[m], kNumJudges, /*seed=*/2023 + m);
    printer.AddRow({methods[m], bench::F1(result.adequacy_pct),
                    bench::F1(result.understandability_pct),
                    util::FormatDouble(result.mean_trust, 2),
                    bench::F3(result.evidence_coverage)});
  }

  std::cout << "=== Figure 5: plausibility and trustability (simulated "
               "judges, "
            << kNumJudges << " judges; scale: " << scale.name << ") ===\n";
  printer.Print(std::cout);
  std::cout << "paper reference: ExplainTI +62% adequacy and +43% "
               "understandability over SelfExplain; highest mean trust.\n";

  util::TablePrinter verification({"Task", "Without expl. (s)",
                                   "With expl. (s)", "Reduction %"});
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    const eval::VerificationOutcome outcome = eval::SimulateVerification(
        explain_ti_by_task[static_cast<int>(kind)],
        /*seed=*/7 + static_cast<int>(kind));
    verification.AddRow({core::TaskKindName(kind),
                         bench::F1(outcome.mean_seconds_without),
                         bench::F1(outcome.mean_seconds_with),
                         bench::F1(outcome.reduction_pct)});
  }
  std::cout << "\n=== Online simulation: expert verification time with vs "
               "without ExplainTI's explanations (same samples; scale: "
            << scale.name << ") ===\n";
  verification.Print(std::cout);
  std::cout << "paper reference: ~19% less verification time with "
               "ExplainTI's explanations.\n";
  return 0;
}
