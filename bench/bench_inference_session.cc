// Measures the no-grad InferenceSession serving path against the
// tape-building eval path on the same weights: per-call Predict/Explain
// latency (p50/p99 over a few hundred calls), heap allocations per call,
// and the steady-state workspace-arena miss count. Emits
// BENCH_inference.json.
//
// It also measures plan-vs-tape: the session's batched entry points
// against the tape oracle (ExplainTiModel::Predict/PredictProbabilities/
// Explain looped over the same batch), per method and per batch size,
// plus a raw encoder section (nn::TransformerEncoder::Serve on
// caller-owned buffers, reported under the "plan_executor" key). The
// "plan_vs_tape" JSON object is the input to ci/check_bench.py, which
// fails the release CI job if the session falls behind the tape at any
// (method, batch_size) or stops being allocation-free.
//
// Besides timing, the run asserts the session is bit-identical to the
// tape (the contract the golden tests prove in miniature) and that
// warmed-up serving misses the per-thread arena zero times.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "nn/encoder.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace explainti;

namespace {

struct PathStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double allocs_per_call = 0.0;
  int64_t arena_misses = 0;  // Meaningful for the no-grad path only.
};

double Percentile(std::vector<double> sorted_us, double q) {
  std::sort(sorted_us.begin(), sorted_us.end());
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

double ChecksumFloats(const std::vector<float>& v) {
  double sum = 0.0;
  for (float f : v) {
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    sum += static_cast<double>(bits % 9973);
  }
  return sum;
}

// Accumulates one path's measurements across interleaved rounds.
class PathMeter {
 public:
  template <typename Call>
  void MeasureRound(const std::vector<int>& ids, Call call) {
    const tensor::WorkspaceStats arena_before =
        tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
    for (int id : ids) {
      util::WallTimer timer;
      call(id);
      lat_us_.push_back(timer.ElapsedSeconds() * 1e6);
    }
    const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
    const tensor::WorkspaceStats arena_after =
        tensor::ThisThreadWorkspaceStats();
    allocations_ += heap_after.allocations - heap_before.allocations;
    arena_misses_ += arena_after.buffer_misses - arena_before.buffer_misses;
  }

  PathStats Stats() const {
    PathStats stats;
    double total = 0.0;
    for (double v : lat_us_) total += v;
    stats.mean_us = total / static_cast<double>(lat_us_.size());
    stats.p50_us = Percentile(lat_us_, 0.50);
    stats.p99_us = Percentile(lat_us_, 0.99);
    stats.allocs_per_call = static_cast<double>(allocations_) /
                            static_cast<double>(lat_us_.size());
    stats.arena_misses = arena_misses_;
    return stats;
  }

 private:
  std::vector<double> lat_us_;
  int64_t allocations_ = 0;
  int64_t arena_misses_ = 0;
};

std::string PathJson(const PathStats& s) {
  std::ostringstream out;
  out << "{\"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us
      << ", \"mean_us\": " << s.mean_us
      << ", \"allocations_per_call\": " << s.allocs_per_call
      << ", \"steady_state_arena_misses\": " << s.arena_misses << "}";
  return out.str();
}

void EmitPath(std::ofstream& json, const char* name, const PathStats& s,
              bool last) {
  json << "    \"" << name << "\": " << PathJson(s) << (last ? "\n" : ",\n");
}

// Splits `ids` into consecutive batches of `batch_size` (last may be
// short) — the request mix a micro-batching server would dispatch.
std::vector<std::vector<int>> MakeBatches(const std::vector<int>& ids,
                                          size_t batch_size) {
  std::vector<std::vector<int>> batches;
  for (size_t i = 0; i < ids.size(); i += batch_size) {
    batches.emplace_back(
        ids.begin() + static_cast<int64_t>(i),
        ids.begin() +
            static_cast<int64_t>(std::min(i + batch_size, ids.size())));
  }
  return batches;
}

// One (method, batch_size) cell of the plan-vs-tape matrix: latency per
// *batch call* on the session and on the tape, interleaved round by round.
struct MatrixCell {
  PathStats plan;
  PathStats tape;
};

template <typename PlanCall, typename TapeCall>
MatrixCell MeasureCell(const std::vector<std::vector<int>>& batches,
                       int rounds, PlanCall plan_call, TapeCall tape_call) {
  PathMeter plan_m, tape_m;
  std::vector<int> batch_indices(batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    batch_indices[static_cast<size_t>(i)] = static_cast<int>(i);
  }
  for (int r = 0; r < rounds; ++r) {
    plan_m.MeasureRound(batch_indices, [&](int b) {
      plan_call(batches[static_cast<size_t>(b)]);
    });
    tape_m.MeasureRound(batch_indices, [&](int b) {
      for (int id : batches[static_cast<size_t>(b)]) tape_call(id);
    });
  }
  return {plan_m.Stats(), tape_m.Stats()};
}

}  // namespace

int main() {
  util::SetGlobalThreadCount(1);  // Per-call latency, not batch throughput.

  data::WikiTableOptions options;
  options.num_tables = 40;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);
  core::ExplainTiConfig config;
  config.sample_size = 4;
  config.top_k = 3;

  core::ExplainTiModel model(config, corpus);  // Tape reference path.
  model.RefreshStores();
  const core::InferenceSession& session = model.session();

  const core::TaskData& task = model.task_data(core::TaskKind::kType);
  std::vector<int> ids;
  for (int id = 0;
       id < static_cast<int>(task.samples.size()) && ids.size() < 20; id += 2) {
    ids.push_back(id);
  }
  const int kRounds = 25;  // 20 ids x 25 rounds = 500 calls per path.

  // Bit-equality gate before timing: the session must serve exactly what
  // the tape path serves.
  for (int id : ids) {
    const double tape = ChecksumFloats(
        model.PredictProbabilities(core::TaskKind::kType, id));
    const double nograd = ChecksumFloats(
        session.PredictProbabilities(core::TaskKind::kType, id));
    CHECK_EQ(tape, nograd) << "no-grad probabilities drifted on sample " << id;
    CHECK(session.Predict(core::TaskKind::kType, id) ==
          model.Predict(core::TaskKind::kType, id))
        << "session Predict diverged on sample " << id;
  }

  auto tape_predict_call = [&](int id) { model.Predict(core::TaskKind::kType, id); };
  auto nograd_predict_call = [&](int id) { session.Predict(core::TaskKind::kType, id); };
  auto tape_explain_call = [&](int id) { model.Explain(core::TaskKind::kType, id); };
  auto nograd_explain_call = [&](int id) { session.Explain(core::TaskKind::kType, id); };

  // Warm-up: two full passes per path so the arena (no-grad) and the
  // allocator reach their steady state before anything is measured.
  for (int r = 0; r < 2; ++r) {
    for (int id : ids) {
      tape_predict_call(id);
      nograd_predict_call(id);
      tape_explain_call(id);
      nograd_explain_call(id);
    }
  }

  // Interleave the four measured paths round by round: this container's
  // background load drifts on a seconds scale, and interleaving spreads
  // that drift evenly instead of letting it bias whichever path happened
  // to run during a slow window.
  PathMeter tape_predict_m, nograd_predict_m, tape_explain_m,
      nograd_explain_m;
  for (int r = 0; r < kRounds; ++r) {
    tape_predict_m.MeasureRound(ids, tape_predict_call);
    nograd_predict_m.MeasureRound(ids, nograd_predict_call);
    tape_explain_m.MeasureRound(ids, tape_explain_call);
    nograd_explain_m.MeasureRound(ids, nograd_explain_call);
  }
  const PathStats tape_predict = tape_predict_m.Stats();
  const PathStats nograd_predict = nograd_predict_m.Stats();
  const PathStats tape_explain = tape_explain_m.Stats();
  const PathStats nograd_explain = nograd_explain_m.Stats();

  CHECK_EQ(nograd_predict.arena_misses, 0)
      << "warmed-up no-grad Predict fell back to the heap";

  // -- Plan vs tape, per method and batch size ----------------------------
  const std::vector<size_t> kBatchSizes = {1, 4, 8};
  const int kMatrixRounds = 12;
  struct MethodRow {
    const char* name;
    std::vector<MatrixCell> cells;  // Parallel to kBatchSizes.
  };
  std::vector<MethodRow> matrix = {
      {"predict", {}}, {"predict_probabilities", {}}, {"explain", {}}};
  for (size_t bi = 0; bi < kBatchSizes.size(); ++bi) {
    const auto batches = MakeBatches(ids, kBatchSizes[bi]);
    matrix[0].cells.push_back(MeasureCell(
        batches, kMatrixRounds,
        [&](const std::vector<int>& b) {
          session.PredictBatch(core::TaskKind::kType, b);
        },
        tape_predict_call));
    matrix[1].cells.push_back(MeasureCell(
        batches, kMatrixRounds,
        [&](const std::vector<int>& b) {
          session.PredictProbabilitiesBatch(core::TaskKind::kType, b);
        },
        [&](int id) {
          model.PredictProbabilities(core::TaskKind::kType, id);
        }));
    matrix[2].cells.push_back(MeasureCell(
        batches, kMatrixRounds,
        [&](const std::vector<int>& b) {
          session.ExplainBatch(core::TaskKind::kType, b);
        },
        tape_explain_call));
  }

  // -- Raw encoder: Serve on caller-owned buffers --------------------------
  // Serving entry points return freshly allocated result vectors, so the
  // zero-allocation property is asserted where it holds by construction:
  // the encoder's raw-buffer forward. Warm up, then demand zero heap
  // traffic and zero pool misses.
  PathStats plan_executor;
  {
    const nn::TransformerEncoder& encoder = model.encoder();
    const core::TaskSample& sample =
        task.samples[static_cast<size_t>(ids.front())];
    const int64_t len = static_cast<int64_t>(sample.seq.ids.size());
    std::vector<float> scratch(
        static_cast<size_t>(encoder.ServeScratchFloats(len)));
    std::vector<float> encoder_out(
        static_cast<size_t>(len * encoder.config().d_model));
    const auto serve = [&] {
      encoder.Serve(sample.seq.ids, sample.seq.segments, scratch.data(),
                    encoder_out.data(), len);
    };
    serve();  // Warm-up.
    serve();

    const int kExecRounds = 200;
    std::vector<double> lat_us;
    lat_us.reserve(kExecRounds);
    const tensor::WorkspaceStats ws_before =
        tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
    for (int r = 0; r < kExecRounds; ++r) {
      util::WallTimer timer;
      serve();
      lat_us.push_back(timer.ElapsedSeconds() * 1e6);
    }
    const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
    const tensor::WorkspaceStats ws_after = tensor::ThisThreadWorkspaceStats();

    double total = 0.0;
    for (double v : lat_us) total += v;
    plan_executor.mean_us = total / static_cast<double>(lat_us.size());
    plan_executor.p50_us = Percentile(lat_us, 0.50);
    plan_executor.p99_us = Percentile(lat_us, 0.99);
    plan_executor.allocs_per_call =
        static_cast<double>(heap_after.allocations - heap_before.allocations) /
        static_cast<double>(kExecRounds);
    plan_executor.arena_misses = static_cast<int64_t>(
        ws_after.buffer_misses - ws_before.buffer_misses);
    CHECK_EQ(heap_after.allocations, heap_before.allocations)
        << "warmed-up Serve allocated on the heap";
    CHECK_EQ(plan_executor.arena_misses, 0)
        << "warmed-up Serve missed the workspace buffer pool";
  }

  const double predict_speedup = tape_predict.p50_us / nograd_predict.p50_us;
  const double explain_speedup = tape_explain.p50_us / nograd_explain.p50_us;
  std::cerr << "[inference] Predict tape p50=" << tape_predict.p50_us
            << "us no-grad p50=" << nograd_predict.p50_us << "us speedup="
            << predict_speedup << "x\n";
  std::cerr << "[inference] Explain tape p50=" << tape_explain.p50_us
            << "us no-grad p50=" << nograd_explain.p50_us << "us speedup="
            << explain_speedup << "x\n";
  std::cerr << "[inference] no-grad allocations/call: Predict="
            << nograd_predict.allocs_per_call
            << " (tape " << tape_predict.allocs_per_call << "), Explain="
            << nograd_explain.allocs_per_call << " (tape "
            << tape_explain.allocs_per_call << ")\n";
  for (const MethodRow& row : matrix) {
    for (size_t bi = 0; bi < kBatchSizes.size(); ++bi) {
      const MatrixCell& cell = row.cells[bi];
      std::cerr << "[inference] plan-vs-tape " << row.name << " batch="
                << kBatchSizes[bi] << ": plan p50=" << cell.plan.p50_us
                << "us tape p50=" << cell.tape.p50_us << "us ("
                << cell.tape.p50_us / cell.plan.p50_us << "x)\n";
    }
  }
  std::cerr << "[inference] encoder Serve p50=" << plan_executor.p50_us
            << "us allocations/call=" << plan_executor.allocs_per_call
            << "\n";

  std::ofstream json("BENCH_inference.json");
  CHECK(json.good()) << "cannot open BENCH_inference.json";
  json << "{\n  " << explainti::bench::HostMetaJson()
       << ",\n  \"calls_per_path\": " << ids.size() * kRounds
       << ",\n  \"predict\": {\n";
  EmitPath(json, "tape", tape_predict, false);
  EmitPath(json, "nograd", nograd_predict, true);
  json << "  },\n  \"predict_p50_speedup\": " << predict_speedup
       << ",\n  \"explain\": {\n";
  EmitPath(json, "tape", tape_explain, false);
  EmitPath(json, "nograd", nograd_explain, true);
  json << "  },\n  \"explain_p50_speedup\": " << explain_speedup
       << ",\n  \"plan_vs_tape\": {\n";
  for (size_t mi = 0; mi < matrix.size(); ++mi) {
    json << "    \"" << matrix[mi].name << "\": {\n";
    for (size_t bi = 0; bi < kBatchSizes.size(); ++bi) {
      const MatrixCell& cell = matrix[mi].cells[bi];
      json << "      \"batch_" << kBatchSizes[bi]
           << "\": {\"plan\": " << PathJson(cell.plan)
           << ", \"tape\": " << PathJson(cell.tape) << "}"
           << (bi + 1 < kBatchSizes.size() ? ",\n" : "\n");
    }
    json << "    },\n";
  }
  json << "    \"plan_executor\": " << PathJson(plan_executor)
       << "\n  }\n}\n";
  std::cerr << "[inference] wrote BENCH_inference.json\n";
  return 0;
}
