#include "tensor/plan_kernels.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

#if defined(__GNUC__) || defined(__clang__)
#define EXPLAINTI_RESTRICT __restrict__
#else
#define EXPLAINTI_RESTRICT
#endif

namespace explainti::tensor {

namespace {

// Same constants (and the same expressions producing them) as the Gelu op
// in tensor_ops.cc — the fused FFN pass must round identically.
constexpr float kGeluCoef = 0.044715f;
const float kSqrt2OverPi = std::sqrt(2.0f / static_cast<float>(M_PI));

inline float GeluScalar(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

// The register-blocked body for one chunk of output rows [ib, ie): two
// output rows x four k steps per pass. Strides generalise the original
// contiguous kernel; with lda == k, ldb == n, ldc == n, TransB == false
// this is the exact loop nest MatMul's serving branch always ran. Each
// output element accumulates its products in ascending-k order with every
// product and add individually rounded, so bits never depend on the
// blocking, the strides, or TransB (which only changes *where* the same
// B values are read from).
template <bool TransB>
void GemmRowsChunk(const float* EXPLAINTI_RESTRICT pa, int64_t lda,
                   const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
                   float* EXPLAINTI_RESTRICT pc, int64_t ldc, int64_t k,
                   int64_t n, int64_t ib, int64_t ie) {
  auto b_at = [pb, ldb](int64_t kk, int64_t j) -> float {
    return TransB ? pb[j * ldb + kk] : pb[kk * ldb + j];
  };
  int64_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const float* EXPLAINTI_RESTRICT a0r = pa + i * lda;
    const float* EXPLAINTI_RESTRICT a1r = a0r + lda;
    float* EXPLAINTI_RESTRICT c0 = pc + i * ldc;
    float* EXPLAINTI_RESTRICT c1 = c0 + ldc;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float x0 = a0r[kk], x1 = a0r[kk + 1];
      const float x2 = a0r[kk + 2], x3 = a0r[kk + 3];
      const float y0 = a1r[kk], y1 = a1r[kk + 1];
      const float y2 = a1r[kk + 2], y3 = a1r[kk + 3];
      for (int64_t j = 0; j < n; ++j) {
        const float v0 = b_at(kk, j), v1 = b_at(kk + 1, j);
        const float v2 = b_at(kk + 2, j), v3 = b_at(kk + 3, j);
        float acc0 = c0[j];
        acc0 += x0 * v0;
        acc0 += x1 * v1;
        acc0 += x2 * v2;
        acc0 += x3 * v3;
        c0[j] = acc0;
        float acc1 = c1[j];
        acc1 += y0 * v0;
        acc1 += y1 * v1;
        acc1 += y2 * v2;
        acc1 += y3 * v3;
        c1[j] = acc1;
      }
    }
    for (; kk < k; ++kk) {
      const float x = a0r[kk], y = a1r[kk];
      for (int64_t j = 0; j < n; ++j) {
        const float v = b_at(kk, j);
        c0[j] += x * v;
        c1[j] += y * v;
      }
    }
  }
  for (; i < ie; ++i) {
    const float* EXPLAINTI_RESTRICT arow = pa + i * lda;
    float* EXPLAINTI_RESTRICT crow = pc + i * ldc;
    int64_t kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float a0 = arow[kk], a1 = arow[kk + 1];
      const float a2 = arow[kk + 2], a3 = arow[kk + 3];
      for (int64_t j = 0; j < n; ++j) {
        float acc = crow[j];
        acc += a0 * b_at(kk, j);
        acc += a1 * b_at(kk + 1, j);
        acc += a2 * b_at(kk + 2, j);
        acc += a3 * b_at(kk + 3, j);
        crow[j] = acc;
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      for (int64_t j = 0; j < n; ++j) crow[j] += av * b_at(kk, j);
    }
  }
}

// Single-output-row kernel (m == 1), chunked over columns [jb, je) like
// the original vector-matrix branch.
template <bool TransB>
void GemmVecChunk(const float* EXPLAINTI_RESTRICT pa,
                  const float* EXPLAINTI_RESTRICT pb, int64_t ldb,
                  float* EXPLAINTI_RESTRICT pc, int64_t k, int64_t jb,
                  int64_t je) {
  auto b_at = [pb, ldb](int64_t kk, int64_t j) -> float {
    return TransB ? pb[j * ldb + kk] : pb[kk * ldb + j];
  };
  int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    const float a0 = pa[kk], a1 = pa[kk + 1];
    const float a2 = pa[kk + 2], a3 = pa[kk + 3];
    for (int64_t j = jb; j < je; ++j) {
      float acc = pc[j];
      acc += a0 * b_at(kk, j);
      acc += a1 * b_at(kk + 1, j);
      acc += a2 * b_at(kk + 2, j);
      acc += a3 * b_at(kk + 3, j);
      pc[j] = acc;
    }
  }
  for (; kk < k; ++kk) {
    const float av = pa[kk];
    for (int64_t j = jb; j < je; ++j) pc[j] += av * b_at(kk, j);
  }
}

}  // namespace

void ServingGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                 bool trans_b, float* c, int64_t ldc, int64_t m, int64_t k,
                 int64_t n) {
  // Same ParallelFor shapes and grains as the MatMul this kernel was
  // extracted from: chunks touch disjoint output rows (or, for a single
  // output row, disjoint columns), so the result is chunking-invariant.
  // When the whole range fits one chunk anyway — or the pool has no
  // workers to fan out to — the chunk function runs directly: it computes
  // the same thing, and skipping ParallelFor's std::function envelope
  // (which heap-allocates for these captures) is what keeps a warmed-up
  // single-threaded plan execution at zero allocations.
  if (m > 1) {
    const int64_t grain = util::GrainForCost(k * n);
    if (m <= grain || util::GlobalThreadPool().num_threads() <= 1) {
      if (trans_b) {
        GemmRowsChunk<true>(a, lda, b, ldb, c, ldc, k, n, 0, m);
      } else {
        GemmRowsChunk<false>(a, lda, b, ldb, c, ldc, k, n, 0, m);
      }
      return;
    }
    util::ParallelFor(0, m, grain, [&](int64_t ib, int64_t ie) {
      if (trans_b) {
        GemmRowsChunk<true>(a, lda, b, ldb, c, ldc, k, n, ib, ie);
      } else {
        GemmRowsChunk<false>(a, lda, b, ldb, c, ldc, k, n, ib, ie);
      }
    });
  } else {
    const int64_t grain = util::GrainForCost(k);
    if (n <= grain || util::GlobalThreadPool().num_threads() <= 1) {
      if (trans_b) {
        GemmVecChunk<true>(a, b, ldb, c, k, 0, n);
      } else {
        GemmVecChunk<false>(a, b, ldb, c, k, 0, n);
      }
      return;
    }
    util::ParallelFor(0, n, grain, [&](int64_t jb, int64_t je) {
      if (trans_b) {
        GemmVecChunk<true>(a, b, ldb, c, k, jb, je);
      } else {
        GemmVecChunk<false>(a, b, ldb, c, k, jb, je);
      }
    });
  }
}

void ZeroRows(float* c, int64_t ldc, int64_t m, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
  }
}

void AddBiasRows(float* c, int64_t ldc, const float* bias, int64_t m,
                 int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* EXPLAINTI_RESTRICT row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = row[j] + bias[j];
  }
}

void BiasGeluRows(float* c, int64_t ldc, const float* bias, int64_t m,
                  int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    float* EXPLAINTI_RESTRICT row = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) row[j] = GeluScalar(row[j] + bias[j]);
  }
}

void ScaleSoftmaxRows(float* c, int64_t rows, int64_t cols, float scale) {
  // Scale the whole matrix first (the Scale op was a full separate pass),
  // then the exact Softmax row loop. Row order is irrelevant to bits (rows
  // are independent), so the serial loop matches the chunked op.
  const int64_t total = rows * cols;
  for (int64_t i = 0; i < total; ++i) c[i] = c[i] * scale;
  for (int64_t r = 0; r < rows; ++r) {
    float* EXPLAINTI_RESTRICT row = c + r * cols;
    float max_v = row[0];
    for (int64_t j = 1; j < cols; ++j) max_v = std::max(max_v, row[j]);
    float total_exp = 0.0f;
    for (int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - max_v);
      total_exp += row[j];
    }
    for (int64_t j = 0; j < cols; ++j) row[j] /= total_exp;
  }
}

float L2NormalizeRow(const float* x, float* out, int64_t n, float eps) {
  float norm_sq = 0.0f;
  for (int64_t i = 0; i < n; ++i) norm_sq += x[i] * x[i];
  const float norm = std::max(std::sqrt(norm_sq), eps);
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] / norm;
  return norm;
}

void MeanRowsInto(const float* a, int64_t m, int64_t n, float* out) {
  std::fill(out, out + n, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* EXPLAINTI_RESTRICT row = a + i * n;
    for (int64_t j = 0; j < n; ++j) out[j] += row[j];
  }
  const float inv_m = 1.0f / static_cast<float>(m);
  for (int64_t j = 0; j < n; ++j) out[j] *= inv_m;
}

void SigmoidInto(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-x[i]));
}

namespace {

// The LayerNorm row body from tensor_ops.cc, normalising `out` in place.
// Reading the sums back from `out` in the mean/variance/normalise passes
// sees exactly the values the unfused Add node held.
inline void LayerNormRowInPlace(float* EXPLAINTI_RESTRICT out, int64_t cols,
                                const float* EXPLAINTI_RESTRICT gamma,
                                const float* EXPLAINTI_RESTRICT beta,
                                float eps) {
  float mean = 0.0f;
  for (int64_t j = 0; j < cols; ++j) mean += out[j];
  mean /= static_cast<float>(cols);
  float var = 0.0f;
  for (int64_t j = 0; j < cols; ++j) {
    const float d = out[j] - mean;
    var += d * d;
  }
  var /= static_cast<float>(cols);
  const float inv_std = 1.0f / std::sqrt(var + eps);
  for (int64_t j = 0; j < cols; ++j) {
    out[j] = (out[j] - mean) * inv_std * gamma[j] + beta[j];
  }
}

}  // namespace

void ResidualLayerNormRows(const float* x, const float* f, float* out,
                           int64_t rows, int64_t cols, const float* gamma,
                           const float* beta, float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* EXPLAINTI_RESTRICT xr = x + r * cols;
    const float* EXPLAINTI_RESTRICT fr = f + r * cols;
    float* EXPLAINTI_RESTRICT or_ = out + r * cols;
    for (int64_t j = 0; j < cols; ++j) or_[j] = xr[j] + fr[j];
    LayerNormRowInPlace(or_, cols, gamma, beta, eps);
  }
}

void EmbedLayerNormRows(const float* token_table, const float* position_table,
                        const float* segment_table, const int* ids,
                        const int* segment_ids, float* out, int64_t rows,
                        int64_t cols, const float* gamma, const float* beta,
                        float eps) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* EXPLAINTI_RESTRICT tok =
        token_table + static_cast<int64_t>(ids[r]) * cols;
    const float* EXPLAINTI_RESTRICT pos = position_table + r * cols;
    float* EXPLAINTI_RESTRICT row = out + r * cols;
    if (segment_table != nullptr) {
      const float* EXPLAINTI_RESTRICT seg =
          segment_table + static_cast<int64_t>(segment_ids[r]) * cols;
      // Left-associative (token + position) + segment — the order the
      // unfused Add chain used.
      for (int64_t j = 0; j < cols; ++j) row[j] = (tok[j] + pos[j]) + seg[j];
    } else {
      for (int64_t j = 0; j < cols; ++j) row[j] = tok[j] + pos[j];
    }
    LayerNormRowInPlace(row, cols, gamma, beta, eps);
  }
}

}  // namespace explainti::tensor
