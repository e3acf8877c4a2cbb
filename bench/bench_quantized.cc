// Measures the int8 quantized serving tier against the fp32 tier it
// shadows, and emits BENCH_quantized.json for the ci/check_bench.py
// quantized gate:
//
//   * raw GEMM throughput: the register-blocked fp32 ServingGemm vs the
//     int8 QuantizeRowsInt8 + ServingGemmInt8 pipeline on a 256^3
//     problem (activation quantization is charged to the int8 side —
//     it is paid on every serving call);
//   * end-to-end Predict/Explain p50/p99 on two sessions over identical
//     trained weights, one config.precision = "fp32" and one "int8";
//   * weight-memory bytes for the armed layers in both precisions;
//   * macro-F1 on the held-out test split of BOTH synthetic corpora
//     (wiki + git), fp32 vs int8, after a short Fit — the accuracy cost
//     of post-training quantization on real task heads;
//   * top-evidence-token agreement on the shared golden fixture
//     (tests/golden_evidence.h), the same samples and window count the
//     tier-1 plan-vs-tape tests pin;
//   * steady-state allocation behaviour of the raw int8 plan executor
//     (must be exactly zero, like the fp32 executor).
//
// The binary hard-fails if the int8 policy does not arm (an fp32 session
// would silently turn every comparison into fp32-vs-fp32) or if the
// warmed-up int8 executor touches the heap.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/explain_ti_model.h"
#include "core/inference_plan.h"
#include "core/inference_session.h"
#include "data/git_generator.h"
#include "data/wiki_generator.h"
#include "eval/f1_metrics.h"
#include "tensor/plan_kernels.h"
#include "tensor/quant.h"
#include "tensor/workspace.h"
#include "tests/golden_evidence.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace explainti;

namespace {

double Percentile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyStats Stats(const std::vector<double>& lat_us) {
  return {Percentile(lat_us, 0.50), Percentile(lat_us, 0.99)};
}

// -- Raw GEMM throughput --------------------------------------------------

struct GemmResult {
  double fp32_p50_ms = 0.0;
  double int8_p50_ms = 0.0;
  double fp32_gflops = 0.0;
  double int8_gflops = 0.0;
  double speedup = 0.0;
};

GemmResult BenchGemm(int64_t m, int64_t k, int64_t n) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);

  const tensor::QuantizedMatrix wq = tensor::QuantizeWeightMatrix(b.data(), k, n);
  std::vector<int8_t> aq(static_cast<size_t>(m * k));
  std::vector<float> a_scales(static_cast<size_t>(m));
  std::vector<int32_t> a_zps(static_cast<size_t>(m));

  auto run_fp32 = [&]() {
    tensor::ZeroRows(c.data(), n, m, n);
    tensor::ServingGemm(a.data(), k, b.data(), n, /*trans_b=*/false, c.data(),
                        n, m, k, n);
  };
  // The activation quantization pass is part of the int8 cost: serving
  // pays it per GEMM, so the throughput claim must include it.
  auto run_int8 = [&]() {
    tensor::QuantizeRowsInt8(a.data(), k, m, k, aq.data(), a_scales.data(),
                             a_zps.data());
    tensor::ServingGemmInt8(aq.data(), a_scales.data(), a_zps.data(),
                            wq.data.data(), wq.params.scales.data(),
                            wq.col_sums.data(), c.data(), n, m, k, n);
  };

  const int kReps = 40;
  for (int r = 0; r < 3; ++r) {
    run_fp32();
    run_int8();
  }
  std::vector<double> fp32_ms, int8_ms;
  for (int r = 0; r < kReps; ++r) {
    util::WallTimer t1;
    run_fp32();
    fp32_ms.push_back(t1.ElapsedSeconds() * 1e3);
    util::WallTimer t2;
    run_int8();
    int8_ms.push_back(t2.ElapsedSeconds() * 1e3);
  }
  GemmResult result;
  result.fp32_p50_ms = Percentile(fp32_ms, 0.50);
  result.int8_p50_ms = Percentile(int8_ms, 0.50);
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  result.fp32_gflops = flops / (result.fp32_p50_ms * 1e6);
  result.int8_gflops = flops / (result.int8_p50_ms * 1e6);
  result.speedup = result.fp32_p50_ms / result.int8_p50_ms;
  return result;
}

// -- Trained fp32 / int8 model pair over identical weights ----------------

struct ModelPair {
  std::unique_ptr<core::ExplainTiModel> fp32;
  std::unique_ptr<core::ExplainTiModel> int8;
};

// Trains an fp32 model briefly, checkpoints it, and loads the SAME
// weights into a model whose session policy is int8 — the PTQ deployment
// flow (train fp32, quantize at load).
ModelPair MakeTrainedPair(const core::ExplainTiConfig& config,
                          const data::TableCorpus& corpus,
                          const std::string& ckpt_path) {
  ModelPair pair;
  pair.fp32 = std::make_unique<core::ExplainTiModel>(config, corpus);
  pair.fp32->Fit();
  CHECK(pair.fp32->SaveWeights(ckpt_path).ok())
      << "cannot checkpoint trained weights to " << ckpt_path;
  core::ExplainTiConfig int8_config = config;
  int8_config.precision = "int8";
  pair.int8 = std::make_unique<core::ExplainTiModel>(int8_config, corpus);
  CHECK(pair.int8->LoadWeights(ckpt_path).ok())
      << "cannot load trained weights from " << ckpt_path;
  CHECK_EQ(std::strcmp(pair.int8->session().served_precision(), "int8"), 0)
      << "int8 policy served " << pair.int8->session().served_precision();
  return pair;
}

struct F1Row {
  const char* corpus;
  const char* task;
  double fp32_macro;
  double int8_macro;
};

void EvalPair(const ModelPair& pair, const char* corpus,
              std::vector<F1Row>* rows) {
  for (core::TaskKind kind : {core::TaskKind::kType, core::TaskKind::kRelation}) {
    if (!pair.fp32->HasTask(kind)) continue;  // Git tables have no relation task.
    const eval::F1Scores f = pair.fp32->Evaluate(kind, data::SplitPart::kTest);
    const eval::F1Scores q = pair.int8->Evaluate(kind, data::SplitPart::kTest);
    rows->push_back({corpus,
                     kind == core::TaskKind::kType ? "type" : "relation",
                     f.macro, q.macro});
  }
}

}  // namespace

int main() {
  util::SetGlobalThreadCount(1);  // Per-call latency, not batch throughput.

  // -- Raw GEMM tier ------------------------------------------------------
  const GemmResult gemm = BenchGemm(256, 256, 256);
  std::cerr << "[quantized] GEMM 256^3: fp32 " << gemm.fp32_gflops
            << " GFLOP/s, int8 " << gemm.int8_gflops << " GFLOP/s ("
            << gemm.speedup << "x)\n";

  // -- Trained pairs on both synthetic corpora ----------------------------
  // Golden fixture corpus/config at the default epoch count: the F1 rows
  // are only meaningful if the fp32 baseline actually learned the tasks.
  const core::ExplainTiConfig config = explainti::testing::GoldenConfig();

  const data::TableCorpus wiki = explainti::testing::GoldenCorpus();
  data::GitTableOptions git_options;
  git_options.num_tables = 20;
  const data::TableCorpus git = data::GenerateGitTableCorpus(git_options);

  ModelPair wiki_pair = MakeTrainedPair(config, wiki, "bench_quantized_wiki.ckpt");
  ModelPair git_pair = MakeTrainedPair(config, git, "bench_quantized_git.ckpt");
  std::remove("bench_quantized_wiki.ckpt");
  std::remove("bench_quantized_git.ckpt");

  std::vector<F1Row> f1_rows;
  EvalPair(wiki_pair, "wiki", &f1_rows);
  EvalPair(git_pair, "git", &f1_rows);
  double max_f1_delta = 0.0;
  for (const F1Row& row : f1_rows) {
    max_f1_delta =
        std::max(max_f1_delta, std::abs(row.fp32_macro - row.int8_macro));
    std::cerr << "[quantized] F1 " << row.corpus << "/" << row.task
              << ": fp32 macro " << row.fp32_macro << " int8 macro "
              << row.int8_macro << "\n";
  }

  const core::InferenceSession& fs = wiki_pair.fp32->session();
  const core::InferenceSession& qs = wiki_pair.int8->session();

  // -- Golden evidence + prediction agreement (shared fixture) ------------
  double evidence_total = 0.0;
  int agree = 0, total = 0;
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    evidence_total += explainti::testing::MeanEvidenceAgreement(
        explainti::testing::GoldenEvidence(fs, kind),
        explainti::testing::GoldenEvidence(qs, kind));
    for (int id : explainti::testing::GoldenSampleIds(fs.task_data(kind))) {
      agree += fs.Predict(kind, id) == qs.Predict(kind, id) ? 1 : 0;
      ++total;
    }
  }
  const double evidence_agreement = evidence_total / 2.0;
  const double prediction_agreement =
      static_cast<double>(agree) / static_cast<double>(total);
  std::cerr << "[quantized] golden evidence agreement " << evidence_agreement
            << ", prediction agreement " << prediction_agreement << "\n";

  // -- End-to-end Predict/Explain latency, fp32 vs int8 -------------------
  const std::vector<int> ids =
      explainti::testing::GoldenSampleIds(fs.task_data(core::TaskKind::kType));
  const int kRounds = 40;
  std::vector<double> fp32_predict, int8_predict, fp32_explain, int8_explain;
  for (int id : ids) {  // Warm-up pass: arenas reach steady state.
    fs.Predict(core::TaskKind::kType, id);
    qs.Predict(core::TaskKind::kType, id);
    fs.Explain(core::TaskKind::kType, id);
    qs.Explain(core::TaskKind::kType, id);
  }
  // Interleave paths round by round so background-load drift on this
  // container spreads evenly instead of biasing one path.
  for (int r = 0; r < kRounds; ++r) {
    for (int id : ids) {
      util::WallTimer t1;
      fs.Predict(core::TaskKind::kType, id);
      fp32_predict.push_back(t1.ElapsedSeconds() * 1e6);
      util::WallTimer t2;
      qs.Predict(core::TaskKind::kType, id);
      int8_predict.push_back(t2.ElapsedSeconds() * 1e6);
    }
    for (int id : ids) {
      util::WallTimer t1;
      fs.Explain(core::TaskKind::kType, id);
      fp32_explain.push_back(t1.ElapsedSeconds() * 1e6);
      util::WallTimer t2;
      qs.Explain(core::TaskKind::kType, id);
      int8_explain.push_back(t2.ElapsedSeconds() * 1e6);
    }
  }
  const LatencyStats fp = Stats(fp32_predict), qp = Stats(int8_predict);
  const LatencyStats fe = Stats(fp32_explain), qe = Stats(int8_explain);
  std::cerr << "[quantized] Predict p50 fp32 " << fp.p50_us << "us int8 "
            << qp.p50_us << "us; Explain p50 fp32 " << fe.p50_us << "us int8 "
            << qe.p50_us << "us\n";

  // -- Weight memory + tier shape ------------------------------------------
  const core::InferenceSession::PrecisionStats stats = qs.precision_stats();
  CHECK_GT(stats.weight_bytes_int8, 0);
  const double reduction = static_cast<double>(stats.weight_bytes_fp32) /
                           static_cast<double>(stats.weight_bytes_int8);
  std::cerr << "[quantized] weight memory " << stats.weight_bytes_fp32
            << " B fp32 -> " << stats.weight_bytes_int8 << " B int8 ("
            << reduction << "x)\n";

  // -- Raw int8 plan executor: zero allocations after warm-up -------------
  double executor_allocs = 0.0;
  int64_t executor_misses = 0;
  {
    const core::InferencePlan* plan =
        &qs.PlanFor(core::TaskKind::kType, ids.front());
    CHECK_GT(plan->int8_gemms, 0) << "int8 session compiled an fp32 plan";
    const core::TaskSample& sample =
        qs.task_data(core::TaskKind::kType)
            .samples[static_cast<size_t>(ids.front())];
    std::vector<float> encoder_out(
        static_cast<size_t>(plan->seq_len * plan->d_model));
    std::vector<float> logits(
        static_cast<size_t>(std::max<int64_t>(plan->num_labels, 1)));
    core::PlanRun run;
    run.token_ids = sample.seq.ids.data();
    run.segment_ids = plan->has_segments ? sample.seq.segments.data() : nullptr;
    run.encoder_out = encoder_out.data();
    run.encoder_out_rows = plan->seq_len;
    run.logits = plan->logits_off >= 0 ? logits.data() : nullptr;
    core::RunPlan(*plan, run);  // Warm-up.
    core::RunPlan(*plan, run);
    const int kExecRounds = 200;
    const tensor::WorkspaceStats ws_before = tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
    for (int r = 0; r < kExecRounds; ++r) core::RunPlan(*plan, run);
    const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
    const tensor::WorkspaceStats ws_after = tensor::ThisThreadWorkspaceStats();
    executor_allocs =
        static_cast<double>(heap_after.allocations - heap_before.allocations) /
        static_cast<double>(kExecRounds);
    executor_misses = static_cast<int64_t>(ws_after.buffer_misses -
                                           ws_before.buffer_misses);
    CHECK_EQ(heap_after.allocations, heap_before.allocations)
        << "warmed-up int8 RunPlan allocated on the heap";
    CHECK_EQ(executor_misses, 0)
        << "warmed-up int8 RunPlan missed the workspace buffer pool";
  }

  // -- JSON -----------------------------------------------------------------
  std::ofstream json("BENCH_quantized.json");
  CHECK(json.good()) << "cannot open BENCH_quantized.json";
  json << "{\n  " << bench::HostMetaJson() << ",\n  \"quantized\": {\n"
       << "    \"gemm\": {\"m\": 256, \"k\": 256, \"n\": 256"
       << ", \"fp32_p50_ms\": " << gemm.fp32_p50_ms
       << ", \"int8_p50_ms\": " << gemm.int8_p50_ms
       << ", \"fp32_gflops\": " << gemm.fp32_gflops
       << ", \"int8_gflops\": " << gemm.int8_gflops
       << ", \"int8_speedup\": " << gemm.speedup << "},\n"
       << "    \"e2e\": {\n"
       << "      \"predict\": {\"fp32_p50_us\": " << fp.p50_us
       << ", \"fp32_p99_us\": " << fp.p99_us
       << ", \"int8_p50_us\": " << qp.p50_us
       << ", \"int8_p99_us\": " << qp.p99_us << "},\n"
       << "      \"explain\": {\"fp32_p50_us\": " << fe.p50_us
       << ", \"fp32_p99_us\": " << fe.p99_us
       << ", \"int8_p50_us\": " << qe.p50_us
       << ", \"int8_p99_us\": " << qe.p99_us << "}\n    },\n"
       << "    \"weight_memory\": {\"fp32_bytes\": " << stats.weight_bytes_fp32
       << ", \"int8_bytes\": " << stats.weight_bytes_int8
       << ", \"reduction\": " << reduction << "},\n"
       << "    \"f1\": [\n";
  for (size_t i = 0; i < f1_rows.size(); ++i) {
    const F1Row& row = f1_rows[i];
    json << "      {\"corpus\": \"" << row.corpus << "\", \"task\": \""
         << row.task << "\", \"fp32_macro\": " << row.fp32_macro
         << ", \"int8_macro\": " << row.int8_macro << "}"
         << (i + 1 < f1_rows.size() ? ",\n" : "\n");
  }
  json << "    ],\n    \"max_f1_delta\": " << max_f1_delta
       << ",\n    \"evidence_agreement\": " << evidence_agreement
       << ",\n    \"prediction_agreement\": " << prediction_agreement
       << ",\n    \"served_precision\": \"" << qs.served_precision() << "\""
       << ",\n    \"int8_layers\": " << stats.int8_layers
       << ",\n    \"plan_executor_int8\": {\"allocations_per_call\": "
       << executor_allocs
       << ", \"steady_state_arena_misses\": " << executor_misses
       << "}\n  }\n}\n";
  std::cerr << "[quantized] wrote BENCH_quantized.json\n";
  return 0;
}
