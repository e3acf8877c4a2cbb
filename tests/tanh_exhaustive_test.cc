// Exhaustive proof of the tensor/gelu.h tanh port: all 2^32 float bit
// patterns against the C library's float tanh (slow: ~45 s on 4 threads).

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
  constexpr uint64_t kAll = uint64_t{1} << 32;
  constexpr int64_t kChunk = 4096;
  const unsigned workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> first_bad{kAll};
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<float> in(kChunk), out(kChunk);
      const uint64_t begin = kAll / workers * w;
      const uint64_t end = w + 1 == workers ? kAll : begin + kAll / workers;
      for (uint64_t base = begin; base < end; base += kChunk) {
        for (int64_t i = 0; i < kChunk; ++i) {
          in[i] = BitsToFloat(static_cast<uint32_t>(base + i));
        }
        TanhInto(in.data(), out.data(), kChunk);
        for (int64_t i = 0; i < kChunk; ++i) {
          if (SameTanh(out[i], std::tanh(in[i]))) continue;
          mismatches.fetch_add(1);
          uint64_t bad = first_bad.load();
          while (base + i < bad &&
                 !first_bad.compare_exchange_weak(bad, base + i)) {
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const float x = BitsToFloat(static_cast<uint32_t>(first_bad.load()));
  float port = 0.0f;
  TanhInto(&x, &port, 1);
  EXPECT_EQ(mismatches.load(), 0u)
      << "first mismatch at 0x" << std::hex << FloatBits(x) << ": port 0x"
      << FloatBits(port) << ", libm 0x" << FloatBits(std::tanh(x));
}

}  // namespace
}  // namespace explainti::tensor
