#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
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
// layouts, on strided views, and however the pool chunks the work.
TEST(ServingGemmTest, EachRowMatchesItsSingleRowProduct) {
  const int restore_threads = util::ConfiguredThreadCount();
  util::Rng rng(41);
  for (int threads : {1, 4}) {
    util::SetGlobalThreadCount(threads);
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

}  // namespace
}  // namespace explainti::tensor
