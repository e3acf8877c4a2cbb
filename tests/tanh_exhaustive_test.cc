// Exhaustive proof of the tensor/gelu.h tanh port: all 2^32 float bit
// patterns, through every vector width this CPU runs, against the C
// library's float tanh (slow: ~1 min on 4 threads).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tanh_reference.h"
#include "tensor/gelu.h"

namespace explainti::tensor {
namespace {

using testing::BitsToFloat;
using testing::FloatBits;
using testing::SameTanh;

TEST(TanhExhaustiveTest, EveryFloatMatchesLibm) {
  if (!testing::LibmIsPortTarget()) {
    GTEST_SKIP() << "the C library's float tanh is not glibc 2.36's";
  }
  const std::vector<GeluBody> bodies = testing::RunnableGeluBodies();
  ASSERT_FALSE(bodies.empty());
  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr int64_t kChunk = 4096;
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::atomic<uint64_t>> mismatches(bodies.size());
  std::vector<std::atomic<uint64_t>> first_bad(bodies.size());
  for (auto& bad : first_bad) bad = kAll;
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<float> in(kChunk), want(kChunk), out(kChunk);
      const uint64_t begin = kAll / workers * w;
      const uint64_t end = w + 1 == workers ? kAll : begin + kAll / workers;
      for (uint64_t base = begin; base < end; base += kChunk) {
        for (int64_t i = 0; i < kChunk; ++i) {
          in[i] = BitsToFloat(static_cast<uint32_t>(base + i));
          want[i] = std::tanh(in[i]);
        }
        for (size_t b = 0; b < bodies.size(); ++b) {
          TanhInto(bodies[b], in.data(), out.data(), kChunk);
          for (int64_t i = 0; i < kChunk; ++i) {
            if (SameTanh(out[i], want[i])) continue;
            mismatches[b].fetch_add(1);
            uint64_t bad = first_bad[b].load();
            while (base + i < bad &&
                   !first_bad[b].compare_exchange_weak(bad, base + i)) {
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t b = 0; b < bodies.size(); ++b) {
    const float x = BitsToFloat(static_cast<uint32_t>(first_bad[b].load()));
    float port = 0.0f;
    TanhInto(bodies[b], &x, &port, 1);
    EXPECT_EQ(mismatches[b].load(), 0u)
        << bodies[b].lanes << " lanes: first mismatch at 0x" << std::hex
        << FloatBits(x) << ": port 0x" << FloatBits(port) << ", libm 0x"
        << FloatBits(std::tanh(x));
  }
}

}  // namespace
}  // namespace explainti::tensor
