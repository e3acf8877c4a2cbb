#ifndef EXPLAINTI_TENSOR_TENSOR_OPS_H_
#define EXPLAINTI_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::tensor {

// Every function below is differentiable: it records a backward closure on
// the returned tensor so that Tensor::Backward() propagates gradients to
// any input with requires_grad set (directly or transitively).

// -- Elementwise / binary ------------------------------------------------

/// a + b. Shapes must match, except that `b` may be a rank-1 tensor whose
/// length equals a's last dimension (bias / row-broadcast add).
Tensor Add(const Tensor& a, const Tensor& b);

/// a - b (same shapes).
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b. Shapes must match, except that `b` may be a rank-1
/// tensor broadcast over a's last dimension.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * c for a scalar constant c.
Tensor Scale(const Tensor& a, float c);

/// a + c for a scalar constant c.
Tensor AddScalar(const Tensor& a, float c);

// -- Linear algebra ------------------------------------------------------

/// Matrix product of a [m,k] and b [k,n] -> [m,n]. Rank-1 operands are
/// treated as [1,k] (a) or [k,1] (b) and the unit dimension is squeezed
/// from the result.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Dot product of two equal-length rank-1 tensors -> scalar.
Tensor Dot(const Tensor& a, const Tensor& b);

/// x / max(|x|_2, eps) for a rank-1 tensor (used by cosine similarity).
Tensor L2Normalize(const Tensor& x, float eps = 1e-8f);

// -- Shape ----------------------------------------------------------------

/// View with a new shape (same element count). Copies data; gradients flow.
Tensor Reshape(const Tensor& a, const Shape& shape);

/// Rows [start, end) of a rank-2 tensor -> [end-start, n].
Tensor SliceRows(const Tensor& a, int64_t start, int64_t end);

/// Row `index` of a rank-2 tensor -> rank-1 [n].
Tensor Row(const Tensor& a, int64_t index);

/// Columns [start, end) of a rank-2 tensor -> [m, end-start]. (Per-head
/// views in multi-head attention.)
Tensor SliceCols(const Tensor& a, int64_t start, int64_t end);

/// Concatenates rank-2 tensors along dim 1 (all must share the row count).
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Concatenates two rank-1 tensors -> [p+q].
Tensor Concat(const Tensor& a, const Tensor& b);

/// Concatenates rank-2 tensors along dim 0 (all must share the column
/// count).
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Stacks rank-1 tensors of equal length into a rank-2 [m, n] tensor.
Tensor Stack(const std::vector<Tensor>& rows);

// -- Reductions -----------------------------------------------------------

/// Mean over dim 0 of a rank-2 tensor -> [n]. (Token-wise mean pooling.)
Tensor MeanRows(const Tensor& a);

/// Sum of all elements -> scalar.
Tensor Sum(const Tensor& a);

/// Mean of all elements -> scalar.
Tensor Mean(const Tensor& a);

// -- Activations ------------------------------------------------------------

Tensor Relu(const Tensor& a);
/// GELU with the tanh approximation (as in BERT).
Tensor Gelu(const Tensor& a);
Tensor TanhOp(const Tensor& a);
Tensor SigmoidOp(const Tensor& a);

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& a);

/// Log-softmax over the last dimension (numerically stable).
Tensor LogSoftmax(const Tensor& a);

// -- Normalisation ----------------------------------------------------------

/// LayerNorm's default epsilon, shared with the raw-buffer serving
/// forwards so both paths normalise identically.
inline constexpr float kLayerNormEps = 1e-5f;

/// Layer normalisation over the last dimension with learnable gain/bias.
/// `gamma` and `beta` are rank-1 of length a.dim(-1).
Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps = kLayerNormEps);

// -- Embeddings ---------------------------------------------------------------

/// Gathers rows of `table` [V, d] at `ids` -> [len(ids), d]. Backward
/// scatter-adds into the table rows.
Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids);

// -- Regularisation ------------------------------------------------------------

/// Inverted dropout: zeroes each element with probability p and scales the
/// rest by 1/(1-p). Identity when `training` is false or p == 0.
Tensor Dropout(const Tensor& a, float p, util::Rng& rng, bool training);

/// Dropout with a caller-supplied mask of multipliers (0 or 1/(1-p)),
/// element-aligned with `a`. Lets callers draw masks from a shared RNG
/// serially and then apply them inside parallel regions, keeping the RNG
/// stream independent of the thread count (multi-head attention does
/// this; see DESIGN.md "Execution model").
Tensor DropoutWithMask(const Tensor& a,
                       std::shared_ptr<const std::vector<float>> mask);

// -- Losses ---------------------------------------------------------------------

/// Softmax cross-entropy of rank-1 `logits` [c] against class `target`.
Tensor CrossEntropyLoss(const Tensor& logits, int target);

/// Cross-entropy of rank-1 `logits` against a probability-vector target
/// (soft labels); target entries must be >= 0 and sum to 1.
Tensor SoftCrossEntropyLoss(const Tensor& logits,
                            const std::vector<float>& target);

/// Mean binary cross-entropy with logits of rank-1 `logits` [c] against a
/// multi-hot target in {0,1}^c. Numerically stable formulation.
Tensor BceWithLogitsLoss(const Tensor& logits,
                         const std::vector<float>& target);

/// Negative log-likelihood -log(probs[target]) of a rank-1 *probability*
/// vector (already sigma-activated). Probabilities are clamped to 1e-7.
/// Used for the LE/GE losses (Eq. 7/8), whose inputs are mixtures of
/// probability vectors rather than logits.
Tensor NllFromProbs(const Tensor& probs, int target);

/// Mean binary cross-entropy of a rank-1 probability vector against a
/// multi-hot target; the multi-label counterpart of NllFromProbs.
Tensor BceFromProbs(const Tensor& probs, const std::vector<float>& target);

// -- Non-differentiable helpers (host-side) ---------------------------------------

/// Softmax of a host vector (no autograd).
std::vector<float> SoftmaxValues(const std::vector<float>& logits);

/// Elementwise sigmoid of a host vector (no autograd).
std::vector<float> SigmoidValues(const std::vector<float>& logits);

/// Rescales a non-negative vector in place to sum 1 (uniform when the
/// total is not positive): the KL input for sigmoid outputs.
void NormalizeToDistribution(std::span<float> v);

/// KL(p || q) between two probability vectors; entries clamped to 1e-9.
float KlDivergence(std::span<const float> p, std::span<const float> q);

/// Cosine similarity between equal-length host vectors.
float CosineSimilarity(const std::vector<float>& a,
                       const std::vector<float>& b);

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_TENSOR_OPS_H_
