#include "nn/attention.h"

#include <cmath>
#include <vector>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(const TransformerConfig& config,
                                               util::Rng& rng)
    : config_(config),
      wq_(config.d_model, config.d_model, rng),
      wk_(config.d_model, config.d_model, rng),
      wv_(config.d_model, config.d_model, rng),
      wo_(config.d_model, config.d_model, rng) {
  CHECK_EQ(config.d_model % config.num_heads, 0)
      << "d_model must be divisible by num_heads";
  AddChild(&wq_);
  AddChild(&wk_);
  AddChild(&wv_);
  AddChild(&wo_);
}

tensor::Tensor MultiHeadSelfAttention::Forward(const tensor::Tensor& x,
                                               const tensor::Tensor& mask,
                                               const ExecContext& ctx) const {
  const int64_t head_dim = config_.d_model / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));

  tensor::Tensor q = wq_.Forward(x);
  tensor::Tensor k = wk_.Forward(x);
  tensor::Tensor v = wv_.Forward(x);

  std::vector<tensor::Tensor> head_outputs;
  head_outputs.reserve(static_cast<size_t>(config_.num_heads));
  for (int64_t h = 0; h < config_.num_heads; ++h) {
    const int64_t lo = h * head_dim;
    const int64_t hi = lo + head_dim;
    tensor::Tensor qh = tensor::SliceCols(q, lo, hi);
    tensor::Tensor kh = tensor::SliceCols(k, lo, hi);
    tensor::Tensor vh = tensor::SliceCols(v, lo, hi);

    tensor::Tensor scores =
        tensor::Scale(tensor::MatMul(qh, tensor::Transpose(kh)), scale);
    if (mask.defined()) {
      scores = tensor::Add(scores, mask);
    }
    const tensor::Tensor attn =
        ApplyDropout(tensor::Softmax(scores), config_.dropout, ctx);
    head_outputs.push_back(tensor::MatMul(attn, vh));
  }

  tensor::Tensor context = tensor::ConcatCols(head_outputs);
  return wo_.Forward(context);
}

int64_t MultiHeadSelfAttention::ServeScratchFloats(int64_t len) const {
  const int64_t head_dim = config_.d_model / config_.num_heads;
  return 4 * len * config_.d_model + len * len + head_dim * len;
}

void MultiHeadSelfAttention::Serve(const float* x, int64_t len,
                                   int64_t q_rows, float* scratch,
                                   float* out) const {
  const int64_t d = config_.d_model;
  const int64_t head_dim = d / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  float* q = scratch;
  float* k = q + len * d;
  float* v = k + len * d;
  float* context = v + len * d;
  float* scores = context + len * d;
  float* kt = scores + len * len;

  // Every query attends to all `len` keys and values; only the first
  // `q_rows` queries are projected and carried through scores, context
  // and the out-projection. Each of those stages is row-independent, so
  // the rows computed read exactly what the full-length pass gives them.
  wq_.Serve(x, q_rows, q);
  wk_.Serve(x, len, k);
  wv_.Serve(x, len, v);
  // Heads run in turn over one scores block and one k_h^T block, reading
  // q/k/v column slices in place and writing each head's context straight
  // into its column block: Forward's SliceCols/ConcatCols without the
  // copies. k_h^T is the one copy kept, because with it the scores GEMM
  // runs the vectorised non-transposed kernel instead of the scalar
  // trans_b gather.
  for (int64_t h = 0; h < config_.num_heads; ++h) {
    const int64_t col = h * head_dim;
    for (int64_t r = 0; r < len; ++r) {
      for (int64_t j = 0; j < head_dim; ++j) {
        kt[j * len + r] = k[r * d + col + j];
      }
    }
    tensor::ZeroRows(scores, len, q_rows, len);
    tensor::ServingGemm(q + col, d, kt, len, /*trans_b=*/false, scores, len,
                        q_rows, head_dim, len);
    tensor::ScaleSoftmaxRows(scores, q_rows, len, scale);
    tensor::ZeroRows(context + col, d, q_rows, head_dim);
    tensor::ServingGemm(scores, len, v + col, d, /*trans_b=*/false,
                        context + col, d, q_rows, len, head_dim);
  }
  wo_.Serve(context, q_rows, out);
}

}  // namespace explainti::nn
