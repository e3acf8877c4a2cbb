#ifndef EXPLAINTI_CORE_INFERENCE_PLAN_H_
#define EXPLAINTI_CORE_INFERENCE_PLAN_H_

#include <cstdint>
#include <vector>

#include "nn/lowering.h"
#include "util/status.h"

namespace explainti::core {

/// Compiled inference plans: the frozen eval graph, lowered once at
/// InferenceSession construction into a flat, topologically-ordered
/// instruction stream over a single pre-planned scratch arena.
///
/// Where the tape encoder re-builds its op graph every call — allocating a
/// node per op (pooled, but still dispatched), materialising per-head
/// slice/transpose/concat copies, and running bias, activation, residual
/// and normalisation as separate passes — a plan is a POD array of
/// PlanInstr executed by one switch loop:
///
///   * fused elementwise chains: Linear bias-add folded into its GEMM,
///     bias+GELU as one pass, scale+softmax in place on the attention
///     scores, residual-add+LayerNorm as one pass, and the whole
///     embedding stack (token+position+segment gathers + LayerNorm) as a
///     single kernel;
///   * strided per-head GEMMs: attention heads read q/k/v column slices
///     and write their context columns directly via lda/ldb/ldc, so
///     SliceCols/ConcatCols never materialise. Only k_h^T is materialised
///     (kTranspose into one reused planned buffer): the non-transposed
///     GEMM kernel vectorises its contiguous inner loop, while the
///     trans_b strided-gather path does not — the 16x64-float copy is far
///     cheaper than running the scores GEMM scalar;
///   * fixed offsets: every intermediate lives at a liveness-planned,
///     cache-line-aligned float offset (tensor::PlanBufferOffsets) in one
///     flat fp32 arena, so steady-state execution performs zero tensor
///     dispatch and zero heap allocation — the executor acquires the
///     arena from the per-thread workspace pool and walks the array;
///   * borrowed weights: every GEMM reads the model's fp32 parameter
///     storage in place, so a plan stays current across Fit and
///     LoadWeights (both write into the existing buffers) with no
///     rebuild.
///
/// Bit-identity with the tape encoder is structural, not approximate:
/// both paths call the one compiled copy of each serving kernel
/// (tensor/plan_kernels.h), and no fusion reassociates a float
/// expression. The session tests check the equivalence against the tape
/// on every serving method.
///
/// Plans are keyed by (task, sequence length, segment use): sequences are
/// unpadded and serve one sample per call (batching is per-sample
/// fan-out), so shape — not batch size — is the axis that changes the
/// instruction stream. The builder runs eagerly over every distinct key
/// in the task data; it rejects only shapes the tape encoder CHECK-fails
/// on too, so the session treats a failed build as a CHECK.

enum class PlanOpCode : uint8_t {
  /// out = LN(token[ids] + position (+ segment[seg])) — one pass.
  kEmbedLayerNorm,
  /// out = A * B (+post). B is a weight matrix or an arena view.
  kGemm,
  /// out = LN(a + b) — residual add + LayerNorm, one pass.
  kResidualLayerNorm,
  /// out[j*ldc + i] = a[i*lda + j] for i < m, j < n — materialises a
  /// transposed copy of an [m, n] view. Element values and every
  /// downstream accumulation order are unchanged; only the memory layout
  /// B is read from differs, which the GEMM kernels document as
  /// bit-irrelevant.
  kTranspose,
};

/// Epilogue fused into a kGemm instruction.
enum class PlanPostOp : uint8_t {
  kNone,
  kBias,          ///< C += bias (Linear's broadcast add).
  kBiasGelu,      ///< C = gelu(C + bias) (FFN expansion).
  kScaleSoftmax,  ///< C = softmax(C * scale) per row (attention scores).
};

/// One instruction. POD: fixed dims and strides, arena float offsets for
/// activation operands (b_off < 0 selects the `weight` pointer instead),
/// and raw parameter pointers that borrow the model's storage. During
/// building the *_off fields hold logical buffer ids; Finalize patches
/// them to arena offsets (folding per-head column offsets in).
struct PlanInstr {
  PlanOpCode op = PlanOpCode::kGemm;
  PlanPostOp post = PlanPostOp::kNone;
  bool trans_b = false;
  int64_t m = 0, k = 0, n = 0;        ///< GEMM dims; LN ops use m rows, n cols.
  int64_t lda = 0, ldb = 0, ldc = 0;  ///< Row strides of A / B / C views.
  int64_t a_off = -1;                 ///< Arena offset of A (LN input x).
  int64_t b_off = -1;                 ///< Arena offset of B (LN input f).
  int64_t out_off = -1;               ///< Arena offset of C / out.
  const float* weight = nullptr;  ///< GEMM B weight; token table for embed.
  const float* bias = nullptr;    ///< Post-op bias; position table for embed.
  const float* aux = nullptr;     ///< Segment table for embed (may be null).
  const float* gamma = nullptr;   ///< LayerNorm gain.
  const float* beta = nullptr;    ///< LayerNorm bias.
  float scale = 1.0f;             ///< kScaleSoftmax multiplier.
  float eps = 0.0f;               ///< LayerNorm epsilon.
};

/// A compiled plan for one (task, seq_len, has_segments) key.
struct InferencePlan {
  std::vector<PlanInstr> instrs;
  /// Instructions [0, encoder_end) compute the encoder; the remainder
  /// (present when a head was folded in) compute classifier logits.
  int32_t encoder_end = 0;
  int64_t arena_size = 0;    ///< Scratch floats the executor needs.
  int64_t enc_out_off = 0;   ///< Arena offset of encoder output [L, d].
  int64_t logits_off = -1;   ///< Arena offset of the logits; -1 if none.
  int64_t seq_len = 0;
  int64_t d_model = 0;
  int64_t num_labels = 0;    ///< 0 when no head was folded in.
  bool has_segments = false;
};

/// Per-call inputs and outputs of RunPlan. Token/segment ids are the only
/// runtime inputs (the plan bakes shapes and weights); outputs are copied
/// into caller-owned storage so the arena never escapes.
struct PlanRun {
  const int* token_ids = nullptr;    ///< [seq_len]; required.
  const int* segment_ids = nullptr;  ///< [seq_len]; required iff has_segments.
  /// If non-null, receives the first `encoder_out_rows` rows of the
  /// encoder output ([rows, d_model], contiguous). rows=1 copies just the
  /// [CLS] embedding for EncodeBatch.
  float* encoder_out = nullptr;
  int64_t encoder_out_rows = 0;
  /// If non-null, receives the `num_labels` logits; the head instructions
  /// only execute when this is requested (and the plan has them).
  float* logits = nullptr;
};

/// Lowers one (seq_len, has_segments) call shape of `encoder` into a
/// plan; `head` (optional) folds a classifier into the stream. Returns an
/// error when the shape is outside the encoder's envelope (seq_len out of
/// [1, max_len], d_model not divisible by num_heads, segment request
/// without a table).
util::StatusOr<InferencePlan> BuildInferencePlan(
    const nn::EncoderLowering& encoder, const nn::LinearLowering* head,
    int64_t seq_len, bool has_segments);

/// Executes `plan` on the calling thread (GEMMs fan out across the pool
/// exactly like the tape's MatMul). Zero heap allocations once the
/// per-thread workspace has warmed: the arena is acquired from and
/// returned to the workspace buffer pool around the instruction loop.
void RunPlan(const InferencePlan& plan, const PlanRun& run);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_INFERENCE_PLAN_H_
