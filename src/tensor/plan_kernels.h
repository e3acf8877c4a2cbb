#ifndef EXPLAINTI_TENSOR_PLAN_KERNELS_H_
#define EXPLAINTI_TENSOR_PLAN_KERNELS_H_

#include <cstdint>

namespace explainti::tensor {

/// Shared kernels: the register-blocked GEMM, the LayerNorm row, and the
/// fused elementwise chains of the raw-buffer serving forwards (the
/// modules' Serve methods in src/nn and InferenceSession's explanation
/// tail).
///
/// Bit-identity is the whole point of this file. The tape ops
/// (tensor_ops.cc: MatMul forward and backward, the LayerNorm forward,
/// Softmax, L2Normalize, MeanRows, the sigmoid) and the serving forwards
/// call ONE compiled copy of each kernel, built once with this library's
/// vectorization flags and no fast-math, so the two execution paths
/// cannot drift: every output element receives the same individually
/// rounded float operations in the same order on both. Because the tape
/// oracle shares these kernels, their independent check is the
/// test-local reference loops (tests/thread_pool_test.cc) plus the
/// pinned training and serving digests. Fusions below are
/// chosen so that folding ops into one pass never reassociates a float
/// expression — they only skip materialising intermediates (slice /
/// transpose / concat copies, separate bias and activation passes).
///
/// Every kernel runs on the calling thread: serving parallelises across
/// requests and samples, never inside one (DESIGN.md §6).

/// C[m,n] += A[m,k] * B[k,n]. A product starts from a C the caller
/// zeroed (see ZeroRows); the tape's dB accumulates into its gradient
/// instead. Row strides lda/ldb/ldc express sub-matrix views: the
/// serving attention reads per-head q/k/v slices and writes per-head
/// context columns in place, eliminating the SliceCols/ConcatCols copies
/// of the tape encoder. `trans_b` reads B as B^T (element [kk, j] at
/// b[j * ldb + kk]), folding the materialised Transpose(kh) of the
/// attention-score GEMM. Accumulation order per output element is
/// ascending-k with every product and add individually rounded,
/// independent of strides and transposition. Zero operands are not
/// skipped: a signed-zero product cannot change an accumulator that is
/// never -0.0, and 0 * inf reads NaN.
void ServingGemm(const float* a, int64_t lda, const float* b, int64_t ldb,
                 bool trans_b, float* c, int64_t ldc, int64_t m, int64_t k,
                 int64_t n);

/// Zero-fills the m x n output window of C (row stride ldc) so ServingGemm
/// accumulates from +0.0f, exactly like the zero-initialised MatMul node.
void ZeroRows(float* c, int64_t ldc, int64_t m, int64_t n);

/// C[i, j] += bias[j] over the m x n window — the broadcast Add a Linear
/// performs after its MatMul, applied in place after the full GEMM.
void AddBiasRows(float* c, int64_t ldc, const float* bias, int64_t m,
                 int64_t n);

/// C[i, j] = gelu(C[i, j] + bias[j]) over the m x n window: the
/// bias-add + tanh-GELU chain of the FFN expansion, with gelu.h's GeluInto,
/// the GELU the tape's Gelu op runs.
void BiasGeluRows(float* c, int64_t ldc, const float* bias, int64_t m,
                  int64_t n);

/// C[i, :] = softmax(C[i, :] * scale) row by row over a contiguous
/// [rows, cols] matrix: the Scale + Softmax chain of the attention scores
/// as one in-place pass (scale everything first, then the max/exp/sum
/// normalisation exactly as Softmax's row loop).
void ScaleSoftmaxRows(float* c, int64_t rows, int64_t cols, float scale);

/// out = x / max(||x||_2, eps) over one length-n row; returns the clamped
/// norm (the L2Normalize op keeps it for its backward). The squared norm
/// accumulates in float, ascending i.
float L2NormalizeRow(const float* x, float* out, int64_t n, float eps);

/// out[j] = mean_i a[i, j] over a contiguous [m, n] block: zero-fill,
/// add the rows in ascending i, then multiply by 1/m — MeanRows' exact
/// order, so a window mean reads identically on both paths.
void MeanRowsInto(const float* a, int64_t m, int64_t n, float* out);

/// out[i] = 1 / (1 + exp(-x[i])) for i < n; `out` may alias `x`.
void SigmoidInto(const float* x, float* out, int64_t n);

/// Mean and inverse standard deviation of one normalised row.
struct LayerNormStats {
  float mean;
  float inv_std;
};

/// row = layernorm(row; gamma, beta, eps) in place over one length-cols
/// row: the mean, then the variance about it, each summed ascending in
/// float, then (row[j] - mean) * inv_std * gamma[j] + beta[j]. Returns
/// the statistics the tape LayerNorm keeps for its backward pass.
LayerNormStats LayerNormRow(float* row, int64_t cols, const float* gamma,
                            const float* beta, float eps);

/// out[i, :] = layernorm(x[i, :] + f[i, :]; gamma, beta, eps): the
/// residual Add + LayerNorm chain as one pass. The row sums are written
/// into `out` first, then normalised in place, so the mean/variance/
/// normalise passes read exactly the values the unfused Add produced.
void ResidualLayerNormRows(const float* x, const float* f, float* out,
                           int64_t rows, int64_t cols, const float* gamma,
                           const float* beta, float eps);

/// out[i, :] = layernorm(token[ids[i]] + position[i] (+ segment[seg[i]]))
/// — the whole embedding stack (three gather-adds, left-associative in
/// this order, then LayerNorm) as one pass. `segment_table` may be null
/// (no segment term; pass `segment_ids` null too).
void EmbedLayerNormRows(const float* token_table, const float* position_table,
                        const float* segment_table, const int* ids,
                        const int* segment_ids, float* out, int64_t rows,
                        int64_t cols, const float* gamma, const float* beta,
                        float eps);

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_PLAN_KERNELS_H_
