// Measures the InferenceSession serving path against the tape-building
// eval path on the same weights ("plan_vs_tape"): the session's batched
// entry points against the tape oracle (ExplainTiModel::Predict/
// PredictProbabilities/Explain looped over the same batch), per method
// and per batch size. Each cell reports p50/p99 latency per batch call,
// heap allocations per call, and the steady-state scratch ("arena") miss
// count: how often a call had to grow its thread's scratch buffer. Emits
// BENCH_inference.json.
//
// It also measures the raw encoder (nn::TransformerEncoder::Serve on caller-owned
// buffers, reported under "encoder_serve") in both output shapes:
// rows = 1, what Predict and EncodeBatch run, and rows = len, what
// Explain runs. ci/check_bench.py reads the JSON and fails the release
// CI job if the session falls behind the tape at any (method,
// batch_size) or either encoder shape stops being allocation-free.
//
// Last, "server_capacity" measures the serving capacity of the
// micro-batching InferenceServer under closed-loop load: 16 client
// threads (twice max_batch_size in flight) each loop ServeSync(Predict)
// against the same session Predict called back to back on one thread,
// both on the process-default pool; each side's rate is its fastest of
// 21 alternating rounds. ci/check_bench.py fails the job if
// any response failed, and on hosts with >= 4 hardware threads if the
// server is below 1.5x the sequential rate.
//
// Besides timing, the run asserts the session is bit-identical to the
// tape (the contract the golden tests prove in miniature) and that
// warmed-up serving never grows its thread's scratch buffer (the batch-1
// session cells).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "nn/encoder.h"
#include "serve/server.h"
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
  int64_t arena_misses = 0;  // Meaningful for the session path only.
};

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
  // Sizes the latency log for every call up front, so a round's
  // allocation count holds only what the measured calls allocate.
  explicit PathMeter(size_t calls) { lat_us_.reserve(calls); }

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
    stats.p50_us = bench::Percentile(lat_us_, 0.50);
    stats.p99_us = bench::Percentile(lat_us_, 0.99);
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
  const size_t calls = batches.size() * static_cast<size_t>(rounds);
  PathMeter plan_m(calls), tape_m(calls);
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

  // Bit-equality gate before timing: the session must serve exactly what
  // the tape path serves.
  for (int id : ids) {
    const double tape = ChecksumFloats(
        model.PredictProbabilities(core::TaskKind::kType, id));
    const double session_sum = ChecksumFloats(
        session.PredictProbabilities(core::TaskKind::kType, id));
    CHECK_EQ(tape, session_sum)
        << "session probabilities drifted on sample " << id;
    CHECK(session.Predict(core::TaskKind::kType, id) ==
          model.Predict(core::TaskKind::kType, id))
        << "session Predict diverged on sample " << id;
  }

  auto tape_predict_call = [&](int id) {
    model.Predict(core::TaskKind::kType, id);
  };
  auto tape_explain_call = [&](int id) {
    model.Explain(core::TaskKind::kType, id);
  };

  // Warm-up: two full passes over every session entry point and tape path
  // so the scratch buffer and the allocator reach their steady state
  // before anything is measured.
  for (int r = 0; r < 2; ++r) {
    for (int id : ids) {
      const std::vector<int> one = {id};
      tape_predict_call(id);
      model.PredictProbabilities(core::TaskKind::kType, id);
      tape_explain_call(id);
      session.PredictBatch(core::TaskKind::kType, one);
      session.PredictProbabilitiesBatch(core::TaskKind::kType, one);
      session.ExplainBatch(core::TaskKind::kType, one);
    }
  }

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
  for (const MethodRow& row : matrix) {
    CHECK_EQ(row.cells[0].plan.arena_misses, 0)
        << "warmed-up session " << row.name
        << " grew the thread's scratch buffer";
  }

  // -- Raw encoder: Serve on caller-owned buffers --------------------------
  // Serving entry points return freshly allocated result vectors, so the
  // zero-allocation property is asserted where it holds by construction:
  // the encoder's raw-buffer forward. It is timed in both output shapes
  // the session runs: rows = 1 (Predict, PredictProbabilities and
  // EncodeBatch read only [CLS], so the last layer computes one row) and
  // rows = len (Explain with LE reads every token row). The shapes
  // alternate round by round over the same samples; after warm-up each
  // must make zero heap allocations and miss the pool zero times.
  const nn::TransformerEncoder& encoder = model.encoder();
  int64_t max_len = 0;
  std::vector<int64_t> seq_lens;
  for (int id : ids) {
    seq_lens.push_back(static_cast<int64_t>(
        task.samples[static_cast<size_t>(id)].seq.ids.size()));
    max_len = std::max(max_len, seq_lens.back());
  }
  std::sort(seq_lens.begin(), seq_lens.end());
  const int64_t median_len = seq_lens[seq_lens.size() / 2];
  std::vector<float> scratch(
      static_cast<size_t>(encoder.ServeScratchFloats(max_len)));
  std::vector<float> encoder_out(
      static_cast<size_t>(max_len * encoder.config().d_model));
  const auto serve = [&](int id, bool all_rows) {
    const text::EncodedSequence& seq =
        task.samples[static_cast<size_t>(id)].seq;
    const int64_t len = static_cast<int64_t>(seq.ids.size());
    encoder.Serve(seq.ids, seq.segments, scratch.data(), encoder_out.data(),
                  all_rows ? len : 1);
  };
  for (int r = 0; r < 2; ++r) {  // Warm-up.
    for (int id : ids) {
      serve(id, false);
      serve(id, true);
    }
  }
  const int kServeRounds = 25;
  PathMeter serve_cls_m(ids.size() * kServeRounds),
      serve_all_m(ids.size() * kServeRounds);
  for (int r = 0; r < kServeRounds; ++r) {
    serve_cls_m.MeasureRound(ids, [&](int id) { serve(id, false); });
    serve_all_m.MeasureRound(ids, [&](int id) { serve(id, true); });
  }
  const PathStats serve_cls = serve_cls_m.Stats();
  const PathStats serve_all = serve_all_m.Stats();
  for (const PathStats* shape : {&serve_cls, &serve_all}) {
    CHECK_EQ(shape->allocs_per_call, 0.0)
        << "warmed-up Serve allocated on the heap";
    CHECK_EQ(shape->arena_misses, 0)
        << "warmed-up Serve grew the thread's scratch buffer";
  }

  // -- Server capacity: closed-loop ServeSync vs sequential Predict -------
  // Half the hardware threads as workers (1 to 4), batches of up to 8, a
  // 64-deep queue. Workers fan each batch over the pool, so the cell
  // runs on the process-default pool rather than the 1-thread pool
  // above. A closed loop keeps exactly `in_flight` requests outstanding,
  // so the measured rate is the server's capacity, not a generator's
  // schedule.
  util::SetGlobalThreadCount(util::ConfiguredThreadCount());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  serve::ServerOptions server_options;
  server_options.num_workers = static_cast<int>(std::clamp(hw / 2u, 1u, 4u));
  server_options.batcher.max_batch_size = 8;
  server_options.batcher.max_queue_depth = 64;
  const int in_flight = 2 * server_options.batcher.max_batch_size;
  serve::InferenceServer server(session, server_options);
  std::atomic<int> failed{0};
  const auto closed_loop = [&](int calls_per_client) {
    std::vector<std::thread> clients;
    for (int c = 0; c < in_flight; ++c) {
      clients.emplace_back([&, c] {
        serve::ServeRequest request;
        request.method = serve::ServeMethod::kPredict;
        request.task = core::TaskKind::kType;
        for (int i = 0; i < calls_per_client; ++i) {
          request.sample_id = ids[static_cast<size_t>(c + i) % ids.size()];
          if (!server.ServeSync(request).status.ok()) ++failed;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  };
  const auto sequential = [&](int calls) {
    for (int i = 0; i < calls; ++i) {
      session.Predict(core::TaskKind::kType,
                      ids[static_cast<size_t>(i) % ids.size()]);
    }
  };
  // Warm every worker's and the calling thread's arena, then alternate
  // short rounds of the two loads. Other load on the host can only slow
  // a round down, never speed it up, so each side's capacity is its
  // fastest round: a busy stretch of the host then costs both sides
  // rounds instead of skewing one side's average.
  closed_loop(static_cast<int>(ids.size()));
  sequential(static_cast<int>(ids.size()));
  const int kCapacityRounds = 21;
  const int kSequentialCalls = 5 * static_cast<int>(ids.size());
  const int kCallsPerClient = 12;
  double sequential_rps = 0.0, closed_loop_rps = 0.0;
  for (int r = 0; r < kCapacityRounds; ++r) {
    util::WallTimer sequential_timer;
    sequential(kSequentialCalls);
    sequential_rps = std::max(
        sequential_rps, kSequentialCalls / sequential_timer.ElapsedSeconds());
    util::WallTimer closed_loop_timer;
    closed_loop(kCallsPerClient);
    closed_loop_rps =
        std::max(closed_loop_rps, in_flight * kCallsPerClient /
                                      closed_loop_timer.ElapsedSeconds());
  }
  server.Shutdown();
  const double capacity_speedup = closed_loop_rps / sequential_rps;

  for (const MethodRow& row : matrix) {
    for (size_t bi = 0; bi < kBatchSizes.size(); ++bi) {
      const MatrixCell& cell = row.cells[bi];
      std::cerr << "[inference] plan-vs-tape " << row.name << " batch="
                << kBatchSizes[bi] << ": plan p50=" << cell.plan.p50_us
                << "us tape p50=" << cell.tape.p50_us << "us ("
                << cell.tape.p50_us / cell.plan.p50_us << "x)\n";
    }
  }
  std::cerr << "[inference] encoder Serve (median len " << median_len
            << ") rows=1 p50=" << serve_cls.p50_us << "us, rows=len p50="
            << serve_all.p50_us << "us ("
            << serve_all.p50_us / serve_cls.p50_us << "x)\n";
  std::cerr << "[inference] server capacity (" << server_options.num_workers
            << " workers, " << in_flight << " in flight): "
            << closed_loop_rps << " rps vs sequential " << sequential_rps
            << " rps (" << capacity_speedup << "x), " << failed.load()
            << " failed\n";

  std::ofstream json("BENCH_inference.json");
  CHECK(json.good()) << "cannot open BENCH_inference.json";
  json << "{\n  " << explainti::bench::HostMetaJson()
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
    json << "    }" << (mi + 1 < matrix.size() ? ",\n" : "\n");
  }
  json << "  },\n  \"encoder_serve\": {\n    \"calls_per_shape\": "
       << ids.size() * kServeRounds << ",\n    \"median_seq_len\": "
       << median_len << ",\n";
  EmitPath(json, "rows_1", serve_cls, false);
  EmitPath(json, "rows_len", serve_all, true);
  json << "  },\n  \"server_capacity\": {\"num_workers\": "
       << server_options.num_workers
       << ", \"max_batch_size\": " << server_options.batcher.max_batch_size
       << ", \"in_flight\": " << in_flight
       << ", \"rounds\": " << kCapacityRounds
       << ", \"sequential_rps\": " << sequential_rps
       << ", \"closed_loop_rps\": " << closed_loop_rps
       << ", \"speedup\": " << capacity_speedup
       << ", \"failed\": " << failed.load() << "}\n}\n";
  std::cerr << "[inference] wrote BENCH_inference.json\n";
  return 0;
}
