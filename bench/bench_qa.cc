// Measures the table-QA composition layer and the explanation-distilled
// surrogate cascade, and emits BENCH_qa.json for the ci/check_bench.py
// qa gate:
//
//   * teacher-path answer agreement vs the direct-prediction oracle
//     (composing through QaEngine must reproduce InferenceSession::Predict
//     bit-for-bit — gated at >= 0.999, i.e. exact);
//   * answer micro-F1 vs the corpus gold labels, teacher and surrogate
//     tiers side by side, on BOTH synthetic corpora (wiki + git) after a
//     short Fit;
//   * surrogate-vs-teacher answer agreement per (corpus, task) — the
//     distillation-fidelity number the cascade's cheap tier stands on
//     (gated at >= 0.85 on both corpora);
//   * cascade p50/p99 answer latency and escalation rate at three
//     confidence thresholds (escalation must be monotone in the
//     threshold);
//   * distillation cost per (corpus, task): the whole
//     SurrogateModel::Distill, and from outside the two teacher passes
//     it runs (PredictBatch over the training split, ExplainBatch over
//     the capped distillation slice); the remainder is feature building
//     plus training (reported, not gated);
//   * raw per-table scoring cost: surrogate ScoreInto vs teacher
//     PredictProbabilities p50 (the >= 2x surrogate advantage is armed
//     on >= 4-thread hosts only);
//   * steady-state allocation behaviour of the warmed surrogate scoring
//     path (must be exactly zero);
//   * composed-justification evidence coverage vs its constituent
//     single-prediction coverage (composition must not dilute evidence),
//     plus a SimulateJudges pass over composed answers.
//
// The binary hard-fails if the surrogate fails to distill (the cascade
// falling closed would silently turn every comparison into
// teacher-vs-teacher) or if the warmed scoring path touches the heap.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/git_generator.h"
#include "data/wiki_generator.h"
#include "eval/human_sim.h"
#include "qa/engine.h"
#include "qa/query.h"
#include "qa/surrogate.h"
#include "tests/golden_evidence.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace explainti;

namespace {

const char* TaskName(core::TaskKind kind) {
  return kind == core::TaskKind::kType ? "type" : "relation";
}

qa::QaQueryKind PointKind(core::TaskKind kind) {
  return kind == core::TaskKind::kType ? qa::QaQueryKind::kColumnType
                                       : qa::QaQueryKind::kRelationBetween;
}

qa::QaQuery PointQuery(core::TaskKind kind, int sample_id) {
  qa::QaQuery query;
  query.kind = PointKind(kind);
  query.sample_ids = {sample_id};
  return query;
}

// Micro-F1 of predicted label sets vs gold label sets.
struct MicroF1 {
  int64_t tp = 0, fp = 0, fn = 0;
  void Add(const std::vector<int>& predicted, const std::vector<int>& gold) {
    for (int label : predicted) {
      if (std::find(gold.begin(), gold.end(), label) != gold.end()) {
        ++tp;
      } else {
        ++fp;
      }
    }
    for (int label : gold) {
      if (std::find(predicted.begin(), predicted.end(), label) ==
          predicted.end()) {
        ++fn;
      }
    }
  }
  double Value() const {
    const double denom = static_cast<double>(2 * tp + fp + fn);
    return denom > 0.0 ? 2.0 * static_cast<double>(tp) / denom : 0.0;
  }
};

// Per-(corpus, task) accuracy row: teacher-vs-oracle, gold F1 for both
// tiers, and the surrogate's answer agreement with the teacher.
struct AccuracyRow {
  const char* corpus;
  const char* task;
  int samples = 0;
  double oracle_agreement = 0.0;
  double teacher_f1 = 0.0;
  double surrogate_f1 = 0.0;
  double surrogate_agreement = 0.0;
};

AccuracyRow MeasureAccuracy(const char* corpus,
                            const core::InferenceSession& session,
                            core::TaskKind kind, qa::QaEngine& teacher,
                            qa::QaEngine& cascade) {
  const core::TaskData& task = session.task_data(kind);
  AccuracyRow row;
  row.corpus = corpus;
  row.task = TaskName(kind);
  row.samples = static_cast<int>(task.samples.size());
  MicroF1 teacher_f1, surrogate_f1;
  int oracle_agree = 0, surrogate_agree = 0;
  for (int id = 0; id < row.samples; ++id) {
    const qa::QaQuery query = PointQuery(kind, id);
    const auto teacher_answer = teacher.Answer(query);
    CHECK(teacher_answer.ok()) << teacher_answer.status().ToString();
    // Threshold 0: every step routed to the surrogate tier.
    const auto surrogate_answer = cascade.AnswerWithThreshold(query, 0.0f);
    CHECK(surrogate_answer.ok()) << surrogate_answer.status().ToString();
    CHECK_EQ(surrogate_answer.value().escalated_steps, 0)
        << "threshold-0 cascade escalated — the surrogate tier is down";

    const std::vector<int>& teacher_labels =
        teacher_answer.value().entries[0].labels;
    const std::vector<int>& surrogate_labels =
        surrogate_answer.value().entries[0].labels;
    const std::vector<int>& gold =
        task.samples[static_cast<size_t>(id)].labels;
    oracle_agree += teacher_labels == session.Predict(kind, id) ? 1 : 0;
    surrogate_agree += surrogate_labels == teacher_labels ? 1 : 0;
    teacher_f1.Add(teacher_labels, gold);
    surrogate_f1.Add(surrogate_labels, gold);
  }
  row.oracle_agreement =
      static_cast<double>(oracle_agree) / static_cast<double>(row.samples);
  row.surrogate_agreement =
      static_cast<double>(surrogate_agree) / static_cast<double>(row.samples);
  row.teacher_f1 = teacher_f1.Value();
  row.surrogate_f1 = surrogate_f1.Value();
  return row;
}

// Where one distillation's time goes: the whole Distill call, the two
// teacher passes it makes (timed from outside, on the same inputs), and
// the remainder — building the feature rows and training.
struct DistillRow {
  const char* corpus;
  const char* task;
  int train_samples = 0;
  int explained = 0;
  double total_ms = 0.0;
  double teacher_predict_ms = 0.0;
  double teacher_explain_ms = 0.0;
  double features_and_train_ms = 0.0;
};

DistillRow MeasureDistill(const char* corpus,
                          const core::InferenceSession& session,
                          core::TaskKind kind, const qa::QaOptions& options) {
  const core::TaskData& task = session.task_data(kind);
  DistillRow row;
  row.corpus = corpus;
  row.task = TaskName(kind);
  row.train_samples = static_cast<int>(task.train_ids.size());
  row.explained = std::min(options.distill_max_samples, row.train_samples);
  util::WallTimer total;
  const auto built = qa::SurrogateModel::Distill(session, kind, options);
  row.total_ms = total.ElapsedSeconds() * 1e3;
  CHECK(built.ok()) << built.status().ToString();
  util::WallTimer predict;
  session.PredictBatch(kind, task.train_ids);
  row.teacher_predict_ms = predict.ElapsedSeconds() * 1e3;
  const std::vector<int> explained(task.train_ids.begin(),
                                   task.train_ids.begin() + row.explained);
  util::WallTimer explain;
  session.ExplainBatch(kind, explained);
  row.teacher_explain_ms = explain.ElapsedSeconds() * 1e3;
  row.features_and_train_ms =
      row.total_ms - row.teacher_predict_ms - row.teacher_explain_ms;
  return row;
}

struct CascadePoint {
  double threshold = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double escalation_rate = 0.0;
};

CascadePoint MeasureCascade(qa::QaEngine& cascade, core::TaskKind kind,
                            int num_samples, float threshold) {
  CascadePoint point;
  point.threshold = threshold;
  std::vector<double> lat_us;
  int64_t surrogate_steps = 0, escalated_steps = 0;
  for (int id = 0; id < num_samples; ++id) {  // Warm-up pass.
    CHECK(cascade.AnswerWithThreshold(PointQuery(kind, id), threshold).ok());
  }
  const int kRounds = 8;
  for (int r = 0; r < kRounds; ++r) {
    for (int id = 0; id < num_samples; ++id) {
      const qa::QaQuery query = PointQuery(kind, id);
      util::WallTimer timer;
      const auto answer = cascade.AnswerWithThreshold(query, threshold);
      lat_us.push_back(timer.ElapsedSeconds() * 1e6);
      CHECK(answer.ok()) << answer.status().ToString();
      surrogate_steps += answer.value().surrogate_steps;
      escalated_steps += answer.value().escalated_steps;
    }
  }
  point.p50_us = bench::Percentile(lat_us, 0.50);
  point.p99_us = bench::Percentile(lat_us, 0.99);
  point.escalation_rate =
      static_cast<double>(escalated_steps) /
      static_cast<double>(std::max<int64_t>(surrogate_steps + escalated_steps,
                                            1));
  return point;
}

}  // namespace

int main() {
  util::SetGlobalThreadCount(1);  // Per-call latency, not batch throughput.

  // -- Trained models on both synthetic corpora ---------------------------
  const core::ExplainTiConfig config = explainti::testing::GoldenConfig();
  const data::TableCorpus wiki = explainti::testing::GoldenCorpus();
  data::GitTableOptions git_options;
  git_options.num_tables = 20;
  const data::TableCorpus git = data::GenerateGitTableCorpus(git_options);

  core::ExplainTiModel wiki_model(config, wiki);
  wiki_model.Fit();
  core::ExplainTiModel git_model(config, git);
  git_model.Fit();

  qa::QaOptions cascade_options;
  cascade_options.enable_surrogate = true;

  std::vector<AccuracyRow> rows;
  std::vector<DistillRow> distill_rows;
  double min_oracle = 1.0, min_surrogate = 1.0;
  struct CorpusEngines {
    const char* name;
    const core::InferenceSession* session;
    std::unique_ptr<qa::QaEngine> teacher;
    std::unique_ptr<qa::QaEngine> cascade;
  };
  std::vector<CorpusEngines> corpora;
  for (auto& [name, model] :
       {std::pair<const char*, core::ExplainTiModel*>{"wiki", &wiki_model},
        {"git", &git_model}}) {
    CorpusEngines engines;
    engines.name = name;
    engines.session = &model->session();
    engines.teacher =
        std::make_unique<qa::QaEngine>(engines.session, qa::QaOptions{});
    engines.cascade =
        std::make_unique<qa::QaEngine>(engines.session, cascade_options);
    CHECK(engines.cascade->surrogate_active())
        << name << ": surrogate failed to distill: "
        << engines.cascade->surrogate_status().ToString();
    for (core::TaskKind kind :
         {core::TaskKind::kType, core::TaskKind::kRelation}) {
      if (!engines.session->HasTask(kind)) continue;  // Git has no relation.
      rows.push_back(MeasureAccuracy(name, *engines.session, kind,
                                     *engines.teacher, *engines.cascade));
      const AccuracyRow& row = rows.back();
      min_oracle = std::min(min_oracle, row.oracle_agreement);
      min_surrogate = std::min(min_surrogate, row.surrogate_agreement);
      std::cerr << "[qa] " << row.corpus << "/" << row.task << ": oracle "
                << row.oracle_agreement << ", teacher F1 " << row.teacher_f1
                << ", surrogate F1 " << row.surrogate_f1 << ", agreement "
                << row.surrogate_agreement << "\n";
      distill_rows.push_back(
          MeasureDistill(name, *engines.session, kind, cascade_options));
      const DistillRow& cost = distill_rows.back();
      std::cerr << "[qa] " << cost.corpus << "/" << cost.task
                << ": distill " << cost.total_ms << "ms (teacher predict "
                << cost.teacher_predict_ms << "ms, explain "
                << cost.teacher_explain_ms << "ms, features+train "
                << cost.features_and_train_ms << "ms)\n";
    }
    corpora.push_back(std::move(engines));
  }

  // -- Cascade latency + escalation at three thresholds -------------------
  qa::QaEngine& wiki_cascade = *corpora[0].cascade;
  const int wiki_type_samples = static_cast<int>(
      corpora[0].session->task_data(core::TaskKind::kType).samples.size());
  std::vector<CascadePoint> cascade_points;
  for (float threshold : {0.5f, 0.8f, 0.95f}) {
    cascade_points.push_back(MeasureCascade(
        wiki_cascade, core::TaskKind::kType, wiki_type_samples, threshold));
    const CascadePoint& point = cascade_points.back();
    std::cerr << "[qa] cascade @" << point.threshold << ": p50 "
              << point.p50_us << "us p99 " << point.p99_us
              << "us, escalation " << point.escalation_rate << "\n";
  }

  // -- Raw per-table tier cost: ScoreInto vs PredictProbabilities ---------
  const qa::SurrogateModel* surrogate =
      wiki_cascade.surrogate(core::TaskKind::kType);
  CHECK(surrogate != nullptr);
  qa::SurrogateModel::Scratch scratch;
  float confidence = 0.0f;
  std::vector<double> surrogate_us, teacher_us;
  for (int id = 0; id < wiki_type_samples; ++id) {  // Warm-up.
    CHECK(surrogate->ScoreInto(id, &scratch, &confidence).ok());
    corpora[0].session->PredictProbabilities(core::TaskKind::kType, id);
  }
  const int kScoreRounds = 20;
  for (int r = 0; r < kScoreRounds; ++r) {
    for (int id = 0; id < wiki_type_samples; ++id) {
      util::WallTimer t1;
      CHECK(surrogate->ScoreInto(id, &scratch, &confidence).ok());
      surrogate_us.push_back(t1.ElapsedSeconds() * 1e6);
      util::WallTimer t2;
      corpora[0].session->PredictProbabilities(core::TaskKind::kType, id);
      teacher_us.push_back(t2.ElapsedSeconds() * 1e6);
    }
  }
  const double surrogate_p50 = bench::Percentile(surrogate_us, 0.50);
  const double teacher_p50 = bench::Percentile(teacher_us, 0.50);
  const double tier_speedup =
      surrogate_p50 > 0.0 ? teacher_p50 / surrogate_p50 : 0.0;
  std::cerr << "[qa] per-table scoring: surrogate p50 " << surrogate_p50
            << "us vs teacher p50 " << teacher_p50 << "us ("
            << tier_speedup << "x)\n";

  // -- Surrogate scoring path: zero allocations after warm-up -------------
  double score_allocs = 0.0;
  {
    const int kAllocRounds = 200;
    CHECK(surrogate->ScoreInto(0, &scratch, &confidence).ok());
    const util::AllocCounts before = util::ThisThreadAllocCounts();
    for (int r = 0; r < kAllocRounds; ++r) {
      CHECK(surrogate->ScoreInto(r % wiki_type_samples, &scratch,
                                 &confidence).ok());
    }
    const util::AllocCounts after = util::ThisThreadAllocCounts();
    score_allocs =
        static_cast<double>(after.allocations - before.allocations) /
        static_cast<double>(kAllocRounds);
    CHECK_EQ(after.allocations, before.allocations)
        << "warmed-up surrogate ScoreInto allocated on the heap";
  }

  // -- Composed-justification coverage + simulated judges -----------------
  // An "any relation" find qualifies every candidate with its top label,
  // so the composed answer the judges score is non-empty regardless of
  // how the trained heads are calibrated (a targeted multi-label find can
  // legitimately select nothing when every probability sits below 0.5).
  const core::TaskData& wiki_relation =
      corpora[0].session->task_data(core::TaskKind::kRelation);
  qa::QaQuery find;
  find.kind = qa::QaQueryKind::kFindRelatedPairs;
  const int relation_samples = static_cast<int>(wiki_relation.samples.size());
  for (int id = 0; id < std::min(relation_samples, 12); ++id) {
    find.sample_ids.push_back(id);
  }
  find.label_id = -1;
  find.top_k = static_cast<int>(find.sample_ids.size());
  const auto composed = corpora[0].teacher->Answer(find);
  CHECK(composed.ok()) << composed.status().ToString();
  CHECK(!composed.value().entries.empty());
  const explainti::testing::QaCoverage coverage =
      explainti::testing::ComposedJustificationCoverage(
          wiki_relation, composed.value().justification);
  const eval::HumanEvalResult judged = eval::SimulateJudges(
      explainti::testing::JudgedQaAnswer(wiki_relation, composed.value()),
      /*num_judges=*/10, /*seed=*/7);
  std::cerr << "[qa] coverage: constituent " << coverage.constituent
            << " composed " << coverage.composed << " over " << coverage.items
            << " items; judges: adequacy " << judged.adequacy_pct
            << "% coverage " << judged.evidence_coverage << "\n";

  // -- JSON ---------------------------------------------------------------
  std::ofstream json("BENCH_qa.json");
  CHECK(json.good()) << "cannot open BENCH_qa.json";
  json << "{\n  " << bench::HostMetaJson() << ",\n  \"qa\": {\n"
       << "    \"accuracy\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const AccuracyRow& row = rows[i];
    json << "      {\"corpus\": \"" << row.corpus << "\", \"task\": \""
         << row.task << "\", \"samples\": " << row.samples
         << ", \"oracle_agreement\": " << row.oracle_agreement
         << ", \"teacher_f1\": " << row.teacher_f1
         << ", \"surrogate_f1\": " << row.surrogate_f1
         << ", \"surrogate_agreement\": " << row.surrogate_agreement << "}"
         << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "    ],\n"
       << "    \"min_oracle_agreement\": " << min_oracle << ",\n"
       << "    \"min_surrogate_agreement\": " << min_surrogate << ",\n"
       << "    \"cascade\": [\n";
  for (size_t i = 0; i < cascade_points.size(); ++i) {
    const CascadePoint& point = cascade_points[i];
    json << "      {\"threshold\": " << point.threshold
         << ", \"p50_us\": " << point.p50_us
         << ", \"p99_us\": " << point.p99_us
         << ", \"escalation_rate\": " << point.escalation_rate << "}"
         << (i + 1 < cascade_points.size() ? ",\n" : "\n");
  }
  json << "    ],\n"
       << "    \"distill\": [\n";
  for (size_t i = 0; i < distill_rows.size(); ++i) {
    const DistillRow& row = distill_rows[i];
    json << "      {\"corpus\": \"" << row.corpus << "\", \"task\": \""
         << row.task << "\", \"train_samples\": " << row.train_samples
         << ", \"explained\": " << row.explained
         << ", \"total_ms\": " << row.total_ms
         << ", \"teacher_predict_ms\": " << row.teacher_predict_ms
         << ", \"teacher_explain_ms\": " << row.teacher_explain_ms
         << ", \"features_and_train_ms\": " << row.features_and_train_ms
         << "}" << (i + 1 < distill_rows.size() ? ",\n" : "\n");
  }
  json << "    ],\n"
       << "    \"tiers\": {\"surrogate_score_p50_us\": " << surrogate_p50
       << ", \"teacher_predict_p50_us\": " << teacher_p50
       << ", \"surrogate_speedup\": " << tier_speedup << "},\n"
       << "    \"surrogate_scoring\": {\"allocations_per_call\": "
       << score_allocs << "},\n"
       << "    \"coverage\": {\"constituent\": " << coverage.constituent
       << ", \"composed\": " << coverage.composed
       << ", \"items\": " << coverage.items
       << ", \"judge_adequacy_pct\": " << judged.adequacy_pct
       << ", \"judge_evidence_coverage\": " << judged.evidence_coverage
       << "}\n  }\n}\n";
  std::cerr << "[qa] wrote BENCH_qa.json\n";
  return 0;
}
