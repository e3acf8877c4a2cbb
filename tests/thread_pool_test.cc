#include "util/thread_pool.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "nn/encoder.h"
#include "nn/pretrain.h"
#include "session_fixtures.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/hash.h"
#include "util/rng.h"

namespace explainti::util {
namespace {

using testing::GlobalPoolGuard;

TEST(ThreadPoolTest, ConstructionAndTeardown) {
  // Pools of every small size construct, split a range into one chunk
  // per participant, and join cleanly — including repeated construction
  // (worker leak check). 840 divides evenly by every size 1..8.
  const auto chunks = [](ThreadPool& pool) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 840, [&count](int64_t, int64_t) { ++count; });
    return count.load();
  };
  for (int round = 0; round < 3; ++round) {
    for (int n = 1; n <= 8; ++n) {
      ThreadPool pool(n);
      EXPECT_EQ(chunks(pool), n);
    }
  }
  // Non-positive requests clamp to a single participant.
  ThreadPool zero(0);
  EXPECT_EQ(chunks(zero), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(chunks(negative), 1);
}

TEST(ThreadPoolTest, ParallelForMatchesSerialOnUnevenRanges) {
  ThreadPool pool(4);
  // Ranges chosen to hit: empty, single, smaller-than-pool, exact
  // multiples, one-over, primes, and a large uneven range.
  const int64_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 61, 1000, 1003};
  for (int64_t n : sizes) {
    std::vector<int64_t> out(static_cast<size_t>(n), -1);
    std::atomic<int64_t> covered{0};
    pool.ParallelFor(0, n, [&](int64_t b, int64_t e) {
      EXPECT_LE(b, e);
      for (int64_t i = b; i < e; ++i) {
        out[static_cast<size_t>(i)] = i * i;
      }
      covered.fetch_add(e - b, std::memory_order_relaxed);
    });
    // Every index covered exactly once.
    EXPECT_EQ(covered.load(), n) << "n=" << n;
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], i * i) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndNegativeRanges) {
  ThreadPool pool(3);
  std::vector<int> hit(30, 0);
  pool.ParallelFor(-10, 20, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hit[static_cast<size_t>(i + 10)];
  });
  for (int h : hit) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::atomic<int64_t> covered{0};
  try {
    pool.ParallelFor(0, 100, [&](int64_t b, int64_t e) {
      covered.fetch_add(e - b, std::memory_order_relaxed);
      if (b <= 37 && 37 < e) {
        throw std::runtime_error("chunk failed");
      }
    });
    FAIL() << "expected the chunk's exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failed");
  }
  // Remaining chunks still ran (chunks are independent by contract).
  EXPECT_EQ(covered.load(), 100);
  // The pool is still usable after an exception.
  std::atomic<int64_t> again{0};
  pool.ParallelFor(0, 10, [&](int64_t b, int64_t e) {
    again.fetch_add(e - b, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Nested region: must run inline on this thread, not deadlock on
      // the (busy) pool.
      pool.ParallelFor(0, 5, [&](int64_t nb, int64_t ne) {
        total.fetch_add(ne - nb, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 5);
}

TEST(ThreadPoolTest, ConfiguredThreadCountReadsEnvironment) {
  // Cannot portably setenv after threads exist, so just check the
  // invariant: positive, and consistent across calls.
  const int n = ConfiguredThreadCount();
  EXPECT_GE(n, 1);
  EXPECT_EQ(ConfiguredThreadCount(), n);
}

// -- Determinism across thread counts --------------------------------------

// The tape's MatMul forward and backward, and LayerNorm's forward, run
// the plan_kernels.h routines that serving runs too, so the tape cannot
// be their oracle. These naive loops are: each rounds every product and
// add in the order the kernels promise.

void ExpectBitEqual(const float* got, const std::vector<float>& want,
                    const char* what, int threads) {
  for (size_t i = 0; i < want.size(); ++i) {
    uint32_t g, w;
    std::memcpy(&g, got + i, sizeof(g));
    std::memcpy(&w, want.data() + i, sizeof(w));
    ASSERT_EQ(g, w) << what << " threads=" << threads << " i=" << i;
  }
}

// Naive triple-loop reference matmul, accumulation in k order — the exact
// order the production kernel must preserve.
std::vector<float> ReferenceMatMul(const std::vector<float>& a,
                                   const std::vector<float>& b, int64_t m,
                                   int64_t k, int64_t n) {
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<size_t>(i * k + kk)];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < n; ++j) {
        c[static_cast<size_t>(i * n + j)] +=
            av * b[static_cast<size_t>(kk * n + j)];
      }
    }
  }
  return c;
}

TEST(ThreadPoolDeterminismTest, ParallelMatMulMatchesSerialReference) {
  GlobalPoolGuard guard;
  const int64_t m = 37, k = 29, n = 41;
  util::Rng rng(2024);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : b) v = static_cast<float>(rng.Normal());
  // Sprinkle zeros: the kernel adds their signed-zero products, which
  // must leave every element as this zero-skipping reference has it.
  for (size_t i = 0; i < a.size(); i += 7) a[i] = 0.0f;

  const std::vector<float> expected = ReferenceMatMul(a, b, m, k, n);

  for (int threads : {1, 2, 4}) {
    SetGlobalThreadCount(threads);
    tensor::Tensor ta = tensor::Tensor::FromVector({m, k}, a);
    tensor::Tensor tb = tensor::Tensor::FromVector({k, n}, b);
    tensor::Tensor tc = tensor::MatMul(ta, tb);
    ASSERT_EQ(tc.size(), static_cast<int64_t>(expected.size()));
    ExpectBitEqual(tc.data(), expected, "C", threads);
  }
}

TEST(ThreadPoolDeterminismTest, MatMulGradientsMatchNaiveLoops) {
  GlobalPoolGuard guard;
  const int64_t m = 13, k = 17, n = 11;
  util::Rng rng(77);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> w(static_cast<size_t>(m * n));
  for (float& v : a) v = static_cast<float>(rng.Normal());
  for (float& v : b) v = static_cast<float>(rng.Normal());
  for (float& v : w) v = static_cast<float>(rng.Normal());
  for (size_t i = 0; i < a.size(); i += 5) a[i] = 0.0f;

  // loss = sum(C ⊙ W), so dC = W exactly.
  // dA[i,kk] = sum_j dC[i,j] B[kk,j], j ascending from 0, then added
  // to a zero gradient (which leaves it unchanged).
  std::vector<float> want_da(static_cast<size_t>(m * k));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) {
        acc += w[static_cast<size_t>(i * n + j)] *
               b[static_cast<size_t>(kk * n + j)];
      }
      want_da[static_cast<size_t>(i * k + kk)] = acc;
    }
  }
  // dB[kk,j] = sum_i A[i,kk] dC[i,j], i ascending from 0, zeros included.
  std::vector<float> want_db(static_cast<size_t>(k * n), 0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t i = 0; i < m; ++i) {
        want_db[static_cast<size_t>(kk * n + j)] +=
            a[static_cast<size_t>(i * k + kk)] *
            w[static_cast<size_t>(i * n + j)];
      }
    }
  }

  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    tensor::Tensor ta = tensor::Tensor::FromVector({m, k}, a);
    tensor::Tensor tb = tensor::Tensor::FromVector({k, n}, b);
    ta.set_requires_grad(true);
    tb.set_requires_grad(true);
    tensor::Tensor loss = tensor::Sum(tensor::Mul(
        tensor::MatMul(ta, tb), tensor::Tensor::FromVector({m, n}, w)));
    loss.Backward();
    ExpectBitEqual(ta.grad(), want_da, "dA", threads);
    ExpectBitEqual(tb.grad(), want_db, "dB", threads);
  }
}

TEST(ThreadPoolDeterminismTest, LayerNormForwardMatchesNaiveRowLoop) {
  GlobalPoolGuard guard;
  const int64_t rows = 7, cols = 29;
  const float eps = 1e-5f;
  util::Rng rng(91);
  std::vector<float> x(static_cast<size_t>(rows * cols));
  std::vector<float> gamma(static_cast<size_t>(cols));
  std::vector<float> beta(static_cast<size_t>(cols));
  for (float& v : x) v = static_cast<float>(rng.Normal());
  for (float& v : gamma) v = static_cast<float>(rng.Normal());
  for (float& v : beta) v = static_cast<float>(rng.Normal());

  std::vector<float> want(x.size());
  for (int64_t r = 0; r < rows; ++r) {
    const float* in = x.data() + r * cols;
    float mean = 0.0f;
    for (int64_t j = 0; j < cols; ++j) mean += in[j];
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      const float d = in[j] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv_std = 1.0f / std::sqrt(var + eps);
    for (int64_t j = 0; j < cols; ++j) {
      want[static_cast<size_t>(r * cols + j)] =
          (in[j] - mean) * inv_std * gamma[static_cast<size_t>(j)] +
          beta[static_cast<size_t>(j)];
    }
  }

  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    const tensor::Tensor out = tensor::LayerNorm(
        tensor::Tensor::FromVector({rows, cols}, x),
        tensor::Tensor::FromVector({cols}, gamma),
        tensor::Tensor::FromVector({cols}, beta), eps);
    ExpectBitEqual(out.data(), want, "LayerNorm", threads);
  }
}

// -- Golden regression: threads=1 (and 4) reproduce pre-parallelism
//    numerics captured from the seed build, bit for bit. ----------------------

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

struct GoldenResult {
  float encoder_first, encoder_last, encoder_sum;
  float train_fwd_first, train_fwd_last;
  float mlm_final_epoch_loss;
  int64_t mlm_masked_tokens_total, mlm_steps;
  float post_pretrain_encoder_sum, post_pretrain_encoder_first;
};

GoldenResult RunGoldenRecipe() {
  nn::TransformerConfig config;
  config.vocab_size = 97;
  config.d_model = 32;
  config.num_heads = 4;
  config.num_layers = 2;
  config.ffn_dim = 64;
  config.max_len = 24;
  util::Rng init_rng(1234);
  nn::TransformerEncoder encoder(config, init_rng);

  std::vector<int> ids, segments;
  util::Rng data_rng(777);
  for (int i = 0; i < 20; ++i) {
    ids.push_back(static_cast<int>(5 + data_rng.UniformInt(90)));
    segments.push_back(i < 10 ? 0 : 1);
  }

  GoldenResult result;
  util::Rng fwd_rng(99);
  tensor::Tensor out =
      encoder.Forward(ids, segments, nn::ExecContext::Eval(&fwd_rng));
  float sum = 0.0f;
  for (int64_t i = 0; i < out.size(); ++i) sum += out.data()[i];
  result.encoder_sum = sum;
  result.encoder_first = out.data()[0];
  result.encoder_last = out.data()[out.size() - 1];

  // Training-mode forward: exercises the dropout RNG stream.
  util::Rng train_rng(4242);
  tensor::Tensor tout =
      encoder.Forward(ids, segments, nn::ExecContext::Train(train_rng));
  result.train_fwd_first = tout.data()[0];
  result.train_fwd_last = tout.data()[tout.size() - 1];

  // Short MLM pretrain: full forward/backward/AdamW loop.
  std::vector<std::vector<int>> seqs;
  std::vector<std::vector<int>> segs;
  util::Rng corpus_rng(31337);
  for (int s = 0; s < 6; ++s) {
    std::vector<int> seq, seg;
    for (int i = 0; i < 16; ++i) {
      seq.push_back(static_cast<int>(5 + corpus_rng.UniformInt(90)));
      seg.push_back(0);
    }
    seqs.push_back(seq);
    segs.push_back(seg);
  }
  nn::MlmPretrainOptions options;
  options.epochs = 2;
  options.batch_size = 2;
  options.seed = 7;
  nn::MlmPretrainStats stats = PretrainMlm(&encoder, seqs, segs, options);
  result.mlm_final_epoch_loss = stats.final_epoch_loss;
  result.mlm_masked_tokens_total = stats.masked_tokens_total;
  result.mlm_steps = stats.steps;

  util::Rng fwd_rng2(99);
  tensor::Tensor out2 =
      encoder.Forward(ids, segments, nn::ExecContext::Eval(&fwd_rng2));
  float sum2 = 0.0f;
  for (int64_t i = 0; i < out2.size(); ++i) sum2 += out2.data()[i];
  result.post_pretrain_encoder_sum = sum2;
  result.post_pretrain_encoder_first = out2.data()[0];
  return result;
}

// Exact bit patterns captured from the pre-parallelism seed build
// (commit d714b09) with the recipe above.
void ExpectMatchesSeedGoldens(const GoldenResult& r) {
  EXPECT_EQ(Bits(r.encoder_first), 0x3f0a527cu);             // 0.540321112
  EXPECT_EQ(Bits(r.encoder_last), 0x3f84d8a7u);              // 1.0378617
  EXPECT_EQ(Bits(r.encoder_sum), 0xb4c00000u);               // -3.57627869e-07
  EXPECT_EQ(Bits(r.train_fwd_first), 0xbdd99d5eu);           // -0.106257185
  EXPECT_EQ(Bits(r.train_fwd_last), 0x3fca42a7u);            // 1.58015907
  EXPECT_EQ(Bits(r.mlm_final_epoch_loss), 0x408e9e68u);      // 4.4568367
  EXPECT_EQ(r.mlm_masked_tokens_total, 38);
  EXPECT_EQ(r.mlm_steps, 6);
  EXPECT_EQ(Bits(r.post_pretrain_encoder_sum), 0xbc999540u);   // -0.0187479
  EXPECT_EQ(Bits(r.post_pretrain_encoder_first), 0xbd5f72e1u); // -0.0545529
}

TEST(ThreadPoolGoldenTest, SingleThreadReproducesSeedNumerics) {
  GlobalPoolGuard guard;
  SetGlobalThreadCount(1);
  ExpectMatchesSeedGoldens(RunGoldenRecipe());
}

TEST(ThreadPoolGoldenTest, FourThreadsReproduceSeedNumerics) {
  GlobalPoolGuard guard;
  SetGlobalThreadCount(4);
  ExpectMatchesSeedGoldens(RunGoldenRecipe());
}

// -- Golden regression: one whole Fit (MLM pre-training, SE/GE/LE tape
//    forward, heads, dropout, AdamW, Evaluate and the store refresh) yields
//    the same weights at every pool size. ----------------------------------

uint64_t FitWeightsDigest() {
  core::ExplainTiConfig config = testing::TinyConfig("bert");
  config.epochs = 1;
  config.pretrain_epochs = 1;
  core::ExplainTiModel model(config, testing::TinyCorpus());
  model.Fit();
  const std::string path = ::testing::TempDir() + "/fit_golden_weights.bin";
  EXPECT_TRUE(model.SaveWeights(path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty());
  return HashBytes(bytes.data(), bytes.size());
}

TEST(ThreadPoolGoldenTest, FitWeightsArePinnedAtEveryPoolSize) {
  GlobalPoolGuard guard;
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    EXPECT_EQ(FitWeightsDigest(), 0x7f0eec24a6c66841ull) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace explainti::util
