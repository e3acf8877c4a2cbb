#include "tensor/tensor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tanh_reference.h"
#include "tensor/gelu.h"
#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::tensor {
namespace {

TEST(TensorTest, ZerosHasShapeAndZeroData) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t.data()[i], 2.5f);
}

TEST(TensorTest, FromVectorRoundTrips) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(TensorTest, NegativeDimIndexing) {
  Tensor t = Tensor::Zeros({2, 5});
  EXPECT_EQ(t.dim(-1), 5);
  EXPECT_EQ(t.dim(-2), 2);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  util::Rng rng1(42);
  util::Rng rng2(42);
  Tensor a = Tensor::Randn({8}, rng1, 1.0f);
  Tensor b = Tensor::Randn({8}, rng2, 1.0f);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(TensorTest, DetachSharesValuesButNotGraph) {
  Tensor a = Tensor::Full({2}, 3.0f);
  a.set_requires_grad(true);
  Tensor b = Scale(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_EQ(d.ToVector(), b.ToVector());
  EXPECT_FALSE(d.requires_grad());
  // Backward through b still works; d is outside the graph.
  Sum(b).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
}

TEST(TensorTest, ZeroGradClearsGradient) {
  Tensor a = Tensor::Full({2}, 1.0f);
  a.set_requires_grad(true);
  Sum(a).Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  a.ZeroGrad();
  EXPECT_FLOAT_EQ(a.grad()[0], 0.0f);
}

TEST(TensorTest, BackwardAccumulatesAcrossUses) {
  // y = a + a: dy/da = 2.
  Tensor a = Tensor::Full({2}, 1.0f);
  a.set_requires_grad(true);
  Tensor y = Sum(Add(a, a));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 2.0f);
}

TEST(TensorTest, BackwardThroughDiamondGraph) {
  // y = sum(a*a + a): dy/da_i = 2a_i + 1.
  Tensor a = Tensor::FromVector({2}, {2.0f, 3.0f});
  a.set_requires_grad(true);
  Tensor y = Sum(Add(Mul(a, a), a));
  y.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 7.0f);
}

TEST(TensorOpsTest, AddBroadcastsBias) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2}, {10, 20});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 13, 24}));
}

TEST(TensorOpsTest, MatMulKnownProduct) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(TensorOpsTest, MatMulVectorTimesMatrix) {
  Tensor a = Tensor::FromVector({2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{9, 12, 15}));
}

TEST(TensorOpsTest, MatMulMatrixTimesVector) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2}, {5, 6});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{17, 39}));
}

TEST(TensorOpsTest, TransposeSwapsDims) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  util::Rng rng(3);
  Tensor x = Tensor::Randn({4, 7}, rng, 2.0f);
  Tensor y = Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 7; ++c) total += y.data()[r * 7 + c];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxIsShiftInvariant) {
  Tensor x = Tensor::FromVector({3}, {1, 2, 3});
  Tensor y = Softmax(x);
  Tensor x_shift = Tensor::FromVector({3}, {101, 102, 103});
  Tensor y_shift = Softmax(x_shift);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(y.data()[i], y_shift.data()[i], 1e-5f);
  }
}

TEST(TensorOpsTest, LogSoftmaxMatchesLogOfSoftmax) {
  Tensor x = Tensor::FromVector({4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = LogSoftmax(x);
  Tensor s = Softmax(x);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-5f);
  }
}

TEST(TensorOpsTest, LayerNormNormalisesRows) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0.0f;
    for (int64_t c = 0; c < 4; ++c) mean += y.data()[r * 4 + c];
    mean /= 4.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    float var = 0.0f;
    for (int64_t c = 0; c < 4; ++c) {
      var += (y.data()[r * 4 + c] - mean) * (y.data()[r * 4 + c] - mean);
    }
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  }
}

TEST(TensorOpsTest, EmbeddingLookupGathersRows) {
  Tensor table = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_EQ(out.shape(), (Shape{3, 2}));
  EXPECT_EQ(out.ToVector(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
}

TEST(TensorOpsTest, EmbeddingBackwardScatterAdds) {
  Tensor table = Tensor::Zeros({3, 2});
  table.set_requires_grad(true);
  Tensor out = EmbeddingLookup(table, {1, 1});
  Sum(out).Backward();
  // Row 1 used twice: gradient 2 per entry; other rows 0.
  EXPECT_FLOAT_EQ(table.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(table.grad()[2], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[3], 2.0f);
  EXPECT_FLOAT_EQ(table.grad()[4], 0.0f);
}

TEST(TensorOpsTest, SliceRowsCopiesRows) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor top = SliceRows(a, 0, 1);
  Tensor rest = SliceRows(a, 1, 3);
  EXPECT_EQ(top.shape(), (Shape{1, 2}));
  EXPECT_EQ(top.ToVector(), (std::vector<float>{1, 2}));
  EXPECT_EQ(rest.ToVector(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(TensorOpsTest, SliceColsAndConcatColsRoundTrip) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor left = SliceCols(a, 0, 2);
  Tensor right = SliceCols(a, 2, 4);
  EXPECT_EQ(left.ToVector(), (std::vector<float>{1, 2, 5, 6}));
  Tensor back = ConcatCols({left, right});
  EXPECT_EQ(back.ToVector(), a.ToVector());
}

TEST(TensorOpsTest, RowExtractsVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Row(a, 1);
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_EQ(r.ToVector(), (std::vector<float>{4, 5, 6}));
}

TEST(TensorOpsTest, MeanRowsAverages) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor m = MeanRows(a);
  EXPECT_EQ(m.ToVector(), (std::vector<float>{2, 3}));
}

TEST(TensorOpsTest, ReluClampsNegatives) {
  Tensor a = Tensor::FromVector({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(a).ToVector(), (std::vector<float>{0, 0, 2}));
}

TEST(TensorOpsTest, GeluMatchesReference) {
  // Known values of tanh-approximated GELU.
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  Tensor y = Gelu(a);
  EXPECT_NEAR(y.data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y.data()[1], 0.8412f, 1e-3f);
}

// Inputs for the tanh port (tensor/gelu.h): a strided sweep of all 2^32
// bit patterns; every 13th float with 1/32 <= |x| < 5; every branch edge
// of the fdlibm code it ports, +-4 ulps on both signs; then denormals,
// zeros, infinities and NaNs. The dense band is where a one-ulp change of
// a constant shows: over all 2^32 inputs, Q1 one ulp off changes 246
// outputs and ln2_lo one ulp off 120, all with 0.04 < |x| < 4.8, and a
// one-ulp change of Q2..Q5 changes none.
std::vector<float> TanhProbeInputs() {
  using testing::BitsToFloat;
  using testing::FloatBits;
  std::vector<float> xs;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4099) {
    xs.push_back(BitsToFloat(static_cast<uint32_t>(bits)));
  }
  for (uint32_t bits = 0x3d000000; bits < 0x40a00000; bits += 13) {
    xs.push_back(BitsToFloat(bits));
    xs.push_back(BitsToFloat(bits | 0x80000000u));
  }
  // tanh: |x| < 2^-55, |x| >= 1, |x| >= 22. expm1: |u| < 2^-25, ln2/2,
  // 1.5 ln2, 27 ln2, as tanh inputs and as its argument u = +-2|x|.
  std::vector<uint32_t> edges = {0x24000000, 0x3f800000, 0x41b00000};
  for (uint32_t u : {0x33000000u, 0x3eb17218u, 0x3f851592u, 0x4195b844u}) {
    edges.push_back(u);
    edges.push_back(u - 0x00800000u);  // x = u / 2
  }
  // expm1's k = trunc(u / ln2 +- 0.5) steps at |u| = (k - 0.5) ln2: the
  // 22/23 and 56/57 crossings of u = 2|x| and the -2/-3 one of u = -2|x|.
  for (double k : {23.0, 57.0, 3.0}) {
    const double x = (k - 0.5) * std::log(2.0) / 2;
    edges.push_back(FloatBits(static_cast<float>(x)));
  }
  for (uint32_t edge : edges) {
    for (uint32_t sign : {0u, 0x80000000u}) {
      for (uint32_t bits = edge - 4; bits <= edge + 4; ++bits) {
        xs.push_back(BitsToFloat(bits | sign));
      }
    }
  }
  for (uint32_t bits : {0x0u, 0x1u, 0x00400000u, 0x007fffffu, 0x00800000u,
                        0x7f800000u, 0x7f800001u, 0x7fc00000u}) {
    xs.push_back(BitsToFloat(bits));
    xs.push_back(BitsToFloat(bits | 0x80000000u));
  }
  return xs;
}

TEST(TanhPortTest, MatchesLibmOnSweepAndBranchEdges) {
  if (!testing::LibmIsPortTarget()) {
    GTEST_SKIP() << "the C library's float tanh is not glibc 2.36's; "
                    "OutputsArePinned still pins the port";
  }
  const std::vector<float> xs = TanhProbeInputs();
  std::vector<float> ys(xs.size());
  TanhInto(xs.data(), ys.data(), static_cast<int64_t>(xs.size()));
  int mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = std::tanh(xs[i]);
    if (testing::SameTanh(ys[i], want)) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << std::hex << "x 0x" << testing::FloatBits(xs[i])
                    << ": port 0x" << testing::FloatBits(ys[i])
                    << ", libm 0x" << testing::FloatBits(want);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// A digest of the port's outputs on TanhProbeInputs (every NaN counted as
// the same NaN), taken where the port matches glibc 2.36 bit for bit. It
// pins the port on any host, whatever that host's libm computes.
TEST(TanhPortTest, OutputsArePinned) {
  const std::vector<float> xs = TanhProbeInputs();
  std::vector<float> ys(xs.size());
  TanhInto(xs.data(), ys.data(), static_cast<int64_t>(xs.size()));
  uint64_t digest = util::kFnv64OffsetBasis;
  for (float y : ys) {
    const uint32_t bits = std::isnan(y) ? 0x7fc00000u : testing::FloatBits(y);
    digest = util::HashBytes(&bits, sizeof bits, digest);
  }
  EXPECT_EQ(digest, 0xadece5057121f7d5ULL) << "digest 0x" << std::hex << digest;
}

// One GELU serves the tape and the serving FFN. At every width (tails of
// 1..7 lanes around the 8-lane steps) the tape's Gelu, its backward pass
// and BiasGeluRows must equal, bit for bit, the scalar formula over the
// port's tanh taken one element at a time.
TEST(GeluTest, TapeAndServingMatchScalarFormulaAtEveryWidth) {
  const float sqrt2_over_pi = std::sqrt(2.0f / static_cast<float>(M_PI));
  auto tanh1 = [](float v) {
    float t = 0.0f;
    TanhInto(&v, &t, 1);
    return t;
  };
  auto inner = [&](float x) {
    return sqrt2_over_pi * (x + 0.044715f * x * x * x);
  };
  util::Rng rng(7);
  for (int64_t n : {1, 3, 4, 5, 7, 8, 9, 127, 128, 129}) {
    const int64_t m = 2, ldc = n + 3;
    std::vector<float> x(static_cast<size_t>(m * n)), w(x.size());
    std::vector<float> bias(static_cast<size_t>(n));
    for (float& v : x) v = static_cast<float>(rng.Uniform(-6, 6));
    for (float& v : w) v = static_cast<float>(rng.Uniform(-1, 1));
    for (float& v : bias) v = static_cast<float>(rng.Uniform(-1, 1));

    Tensor xt = Tensor::FromVector({m, n}, x);
    xt.set_requires_grad(true);
    Tensor y = Gelu(xt);
    Sum(Mul(y, Tensor::FromVector({m, n}, w))).Backward();
    const Tensor yb = Gelu(Add(Tensor::FromVector({m, n}, x),
                               Tensor::FromVector({n}, bias)));

    std::vector<float> c(static_cast<size_t>(m * ldc), 99.0f);
    for (int64_t i = 0; i < m; ++i) {
      std::copy_n(x.begin() + i * n, n, c.begin() + i * ldc);
    }
    BiasGeluRows(c.data(), ldc, bias.data(), m, n);

    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const float xi = x[i * n + j];
        const float t = tanh1(inner(xi));
        const float gelu = 0.5f * xi * (1.0f + t);
        const float dinner =
            sqrt2_over_pi * (1.0f + 3.0f * 0.044715f * xi * xi);
        const float dy =
            0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * dinner;
        const float xb = xi + bias[j];
        const float gelu_b = 0.5f * xb * (1.0f + tanh1(inner(xb)));
        const std::string where =
            "n=" + std::to_string(n) + " [" + std::to_string(i) + ", " +
            std::to_string(j) + "]";
        EXPECT_EQ(testing::FloatBits(y.data()[i * n + j]),
                  testing::FloatBits(gelu)) << "Gelu " << where;
        EXPECT_EQ(testing::FloatBits(xt.grad()[i * n + j]),
                  testing::FloatBits(0.0f + w[i * n + j] * dy))
            << "Gelu backward " << where;
        EXPECT_EQ(testing::FloatBits(yb.data()[i * n + j]),
                  testing::FloatBits(gelu_b)) << "Gelu(x + bias) " << where;
        EXPECT_EQ(testing::FloatBits(c[i * ldc + j]),
                  testing::FloatBits(gelu_b)) << "BiasGeluRows " << where;
      }
      for (int64_t j = n; j < ldc; ++j) {
        EXPECT_EQ(c[i * ldc + j], 99.0f) << "BiasGeluRows wrote past n=" << n;
      }
    }
  }
}

TEST(TensorOpsTest, SigmoidAtZeroIsHalf) {
  EXPECT_NEAR(SigmoidOp(Tensor::Zeros({1})).data()[0], 0.5f, 1e-6f);
}

TEST(TensorOpsTest, L2NormalizeYieldsUnitVector) {
  Tensor a = Tensor::FromVector({2}, {3, 4});
  Tensor n = L2Normalize(a);
  EXPECT_NEAR(n.data()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(n.data()[1], 0.8f, 1e-5f);
}

TEST(TensorOpsTest, CrossEntropyMatchesManual) {
  Tensor logits = Tensor::FromVector({3}, {1.0f, 2.0f, 0.5f});
  const std::vector<float> probs = SoftmaxValues(logits.ToVector());
  EXPECT_NEAR(CrossEntropyLoss(logits, 1).item(), -std::log(probs[1]), 1e-5f);
}

TEST(TensorOpsTest, BceWithLogitsMatchesManual) {
  Tensor logits = Tensor::FromVector({2}, {0.0f, 2.0f});
  const std::vector<float> target = {1.0f, 0.0f};
  const float expected =
      (-std::log(0.5f) - std::log(1.0f - 1.0f / (1.0f + std::exp(-2.0f)))) /
      2.0f;
  EXPECT_NEAR(BceWithLogitsLoss(logits, target).item(), expected, 1e-5f);
}

TEST(TensorOpsTest, NllFromProbsMatchesManual) {
  Tensor probs = Tensor::FromVector({2}, {0.25f, 0.75f});
  EXPECT_NEAR(NllFromProbs(probs, 1).item(), -std::log(0.75f), 1e-5f);
}

TEST(TensorOpsTest, DropoutEvalIsIdentity) {
  util::Rng rng(5);
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor d = Dropout(a, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(d.ToVector(), a.ToVector());
}

TEST(TensorOpsTest, DropoutPreservesExpectation) {
  util::Rng rng(6);
  Tensor a = Tensor::Full({20000}, 1.0f);
  Tensor d = Dropout(a, 0.3f, rng, /*training=*/true);
  double total = 0.0;
  for (int64_t i = 0; i < d.size(); ++i) total += d.data()[i];
  EXPECT_NEAR(total / static_cast<double>(d.size()), 1.0, 0.03);
}

TEST(TensorOpsTest, KlDivergenceZeroForIdenticalDistributions) {
  const std::vector<float> p = {0.2f, 0.3f, 0.5f};
  EXPECT_NEAR(KlDivergence(p, p), 0.0f, 1e-6f);
}

TEST(TensorOpsTest, KlDivergenceNonNegative) {
  const std::vector<float> p = {0.9f, 0.05f, 0.05f};
  const std::vector<float> q = {0.1f, 0.6f, 0.3f};
  EXPECT_GT(KlDivergence(p, q), 0.0f);
}

// The serving encoder computes only the [CLS] row of its last layer, so
// every GEMM there runs with m == 1 (GemmVecChunk) where the full-length
// pass runs m == len (GemmRowsChunk). Row i of an m-row product must
// equal, bit for bit, the m == 1 product of row i alone, for both B
// layouts, on strided views, and at any pool size.
TEST(ServingGemmTest, EachRowMatchesItsSingleRowProduct) {
  const int restore_threads = util::ConfiguredThreadCount();
  util::Rng rng(41);
  for (int threads : {1, 4}) {
    util::SetGlobalThreadCount(threads);
    if (threads > 1) {
      // A multi-row product on a multi-thread pool runs on the calling
      // thread, allocation-free.
      const int64_t m = 29, k = 64, n = 64;
      const std::vector<float> a(static_cast<size_t>(m * k), 0.5f);
      const std::vector<float> b(static_cast<size_t>(k * n), 0.25f);
      std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
      util::ScopedAllocCounter counter;
      ServingGemm(a.data(), k, b.data(), n, /*trans_b=*/false, c.data(), n,
                  m, k, n);
      EXPECT_EQ(counter.Delta().allocations, 0)
          << "ServingGemm allocated on a " << threads << "-thread pool";
    }
    for (int64_t m : {2, 3, 5, 29}) {
      for (int64_t k : {1, 3, 4, 5, 17, 64}) {
        for (int64_t n : {1, 7, 64, 256}) {
          for (bool trans_b : {false, true}) {
            // Padded strides: the attention heads read and write column
            // slices of wider rows.
            const int64_t lda = k + 3;
            const int64_t ldb = (trans_b ? k : n) + 2;
            const int64_t ldc = n + 5;
            std::vector<float> a(static_cast<size_t>(m * lda));
            std::vector<float> b(
                static_cast<size_t>((trans_b ? n : k) * ldb));
            for (float& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
            for (float& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
            std::vector<float> c(static_cast<size_t>(m * ldc), 0.0f);
            ServingGemm(a.data(), lda, b.data(), ldb, trans_b, c.data(),
                        ldc, m, k, n);
            for (int64_t i = 0; i < m; ++i) {
              std::vector<float> row(static_cast<size_t>(n), 0.0f);
              ServingGemm(a.data() + i * lda, lda, b.data(), ldb, trans_b,
                          row.data(), n, 1, k, n);
              EXPECT_EQ(std::memcmp(row.data(), c.data() + i * ldc,
                                    static_cast<size_t>(n) * sizeof(float)),
                        0)
                  << "row " << i << " of m=" << m << " k=" << k
                  << " n=" << n << " trans_b=" << trans_b
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
  util::SetGlobalThreadCount(restore_threads);
}

// A thread warmed by its largest call serves a smaller one, then the
// large one again, from the same buffer: no growth, no heap allocation.
// A fresh thread keeps other tests' scratch out of the counts.
TEST(ScratchBufferTest, SmallerCallBetweenLargeOnesNeitherGrowsNorAllocates) {
  constexpr size_t kLarge = 1000;
  std::thread([] {
    { ScratchBuffer warm(kLarge); }
    const WorkspaceStats before = ThisThreadWorkspaceStats();
    EXPECT_EQ(before.buffer_misses, 1);
    const util::ScopedAllocCounter allocs;
    for (const size_t n : {kLarge / 2 - 1, kLarge}) {
      ScratchBuffer scratch(n);
      EXPECT_EQ(scratch.size(), n);
      scratch.data()[n - 1] = 1.0f;
    }
    const WorkspaceStats after = ThisThreadWorkspaceStats();
    EXPECT_EQ(after.buffer_acquires - before.buffer_acquires, 2);
    EXPECT_EQ(after.buffer_misses - before.buffer_misses, 0);
    EXPECT_EQ(allocs.Delta().allocations, 0);
  }).join();
}

// Two live buffers on one thread would alias the one thread buffer.
TEST(ScratchBufferDeathTest, SecondLiveBufferOnOneThreadAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ScratchBuffer first(8);
        ScratchBuffer second(8);
      },
      "second live ScratchBuffer");
}

}  // namespace
}  // namespace explainti::tensor
