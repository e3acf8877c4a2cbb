// Measures thread-pool scaling on the two parallelised tape hot paths —
// matmul and encoder forward — at 1/2/4 threads, and
// emits BENCH_parallel.json with absolute times and speedups relative to
// the single-threaded run.
//
// Besides timing, the run asserts that every workload's result checksum
// is bit-identical across thread counts: scaling must never change
// numerics (the determinism contract in DESIGN.md "Execution model").
// Note speedups depend on the machine; on a single-core container every
// configuration measures ~1.0x and the JSON records exactly that.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "nn/encoder.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace explainti;

namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

struct Workload {
  std::string name;
  // Runs one iteration and returns a result checksum (bitwise over
  // outputs, so any numeric drift across thread counts is caught).
  double (*run)();
  int reps;
};

double ChecksumFloats(const float* data, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits;
    std::memcpy(&bits, data + i, sizeof(bits));
    sum += static_cast<double>(bits % 9973);
  }
  return sum;
}

// Each workload's inputs are drawn once, by the untimed warm-up call, so
// the timed calls measure only the parallel op.
double RunMatMul() {
  static const auto inputs = [] {
    const int64_t m = 192, k = 192, n = 192;
    util::Rng rng(11);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    for (float& v : a) v = static_cast<float>(rng.Normal());
    for (float& v : b) v = static_cast<float>(rng.Normal());
    return std::pair(tensor::Tensor::FromVector({m, k}, a),
                     tensor::Tensor::FromVector({k, n}, b));
  }();
  tensor::Tensor tc = tensor::MatMul(inputs.first, inputs.second);
  return ChecksumFloats(tc.data(), tc.size());
}

struct EncoderInput {
  std::unique_ptr<nn::TransformerEncoder> encoder;
  std::vector<int> ids, segments;
};

double RunEncoderForward() {
  static const EncoderInput input = [] {
    nn::TransformerConfig config;
    config.vocab_size = 512;
    config.d_model = 64;
    config.num_heads = 4;
    config.num_layers = 2;
    config.ffn_dim = 128;
    config.max_len = 64;
    util::Rng init_rng(21);
    EncoderInput built;
    built.encoder = std::make_unique<nn::TransformerEncoder>(config, init_rng);
    util::Rng data_rng(22);
    for (int i = 0; i < 48; ++i) {
      built.ids.push_back(static_cast<int>(5 + data_rng.UniformInt(500)));
      built.segments.push_back(i < 24 ? 0 : 1);
    }
    return built;
  }();
  util::Rng fwd_rng(23);
  tensor::Tensor out = input.encoder->Forward(
      input.ids, input.segments, nn::ExecContext::Eval(&fwd_rng));
  return ChecksumFloats(out.data(), out.size());
}

}  // namespace

int main() {
  const Workload workloads[] = {
      {"matmul_192", &RunMatMul, 8},
      {"encoder_forward", &RunEncoderForward, 5},
  };

  std::ofstream json("BENCH_parallel.json");
  CHECK(json.good()) << "cannot open BENCH_parallel.json";
  json << "{\n  " << explainti::bench::HostMetaJson()
       << ",\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n  \"workloads\": [\n";

  bool first_workload = true;
  for (const Workload& w : workloads) {
    double baseline_seconds = 0.0;
    double baseline_checksum = 0.0;
    if (!first_workload) json << ",\n";
    first_workload = false;
    json << "    {\"name\": \"" << w.name << "\", \"runs\": [";
    for (size_t t = 0; t < sizeof(kThreadCounts) / sizeof(int); ++t) {
      const int threads = kThreadCounts[t];
      util::SetGlobalThreadCount(threads);
      w.run();  // Warm-up (allocator, caches).
      double best = 1e100;
      double checksum = 0.0;
      for (int rep = 0; rep < w.reps; ++rep) {
        util::WallTimer timer;
        checksum = w.run();
        best = std::min(best, timer.ElapsedSeconds());
      }
      if (threads == 1) {
        baseline_seconds = best;
        baseline_checksum = checksum;
      } else {
        // Determinism gate: parallel runs must reproduce the serial
        // result exactly.
        CHECK_EQ(checksum, baseline_checksum)
            << w.name << " checksum drifted at " << threads << " threads";
      }
      const double speedup = baseline_seconds / best;
      std::cerr << "[parallel] " << w.name << " threads=" << threads
                << " best=" << best << "s speedup=" << speedup << "x\n";
      if (t != 0) json << ", ";
      json << "{\"threads\": " << threads << ", \"seconds\": " << best
           << ", \"speedup\": " << speedup << "}";
    }
    json << "]}";
  }
  json << "\n  ]\n}\n";
  std::cerr << "[parallel] wrote BENCH_parallel.json\n";
  return 0;
}
