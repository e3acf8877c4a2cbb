#include "nn/attention.h"

#include <cmath>
#include <memory>
#include <vector>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/thread_pool.h"

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

  // Attention dropout masks are drawn serially, in head order, from the
  // shared RNG — the exact element order the per-head Dropout call used —
  // so the RNG stream (and with it every training numeric) is independent
  // of how many threads then apply them.
  const int64_t len = x.dim(0);
  const bool use_dropout = ctx.training() && config_.dropout > 0.0f;
  std::vector<std::shared_ptr<const std::vector<float>>> dropout_masks;
  if (use_dropout) {
    CHECK(ctx.rng != nullptr) << "attention dropout requires an RNG";
    const float keep_scale = 1.0f / (1.0f - config_.dropout);
    dropout_masks.reserve(static_cast<size_t>(config_.num_heads));
    for (int64_t h = 0; h < config_.num_heads; ++h) {
      auto head_mask =
          std::make_shared<std::vector<float>>(static_cast<size_t>(len * len));
      for (float& m : *head_mask) {
        m = ctx.rng->Bernoulli(config_.dropout) ? 0.0f : keep_scale;
      }
      dropout_masks.push_back(std::move(head_mask));
    }
  }

  // Each head builds an independent subgraph over the shared, read-only
  // q/k/v tensors; writes go to its own slot, so the concat order (and
  // the result) is identical to the serial per-head loop.
  std::vector<tensor::Tensor> head_outputs(
      static_cast<size_t>(config_.num_heads));
  auto run_heads = [&](int64_t hb, int64_t he) {
    for (int64_t h = hb; h < he; ++h) {
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
      tensor::Tensor attn = tensor::Softmax(scores);
      if (use_dropout) {
        attn = tensor::DropoutWithMask(attn,
                                       dropout_masks[static_cast<size_t>(h)]);
      }
      head_outputs[static_cast<size_t>(h)] = tensor::MatMul(attn, vh);
    }
  };
  util::ParallelFor(0, config_.num_heads, 1, run_heads);

  tensor::Tensor context = tensor::ConcatCols(head_outputs);
  return wo_.Forward(context);
}

int64_t MultiHeadSelfAttention::ServeScratchFloats(int64_t len) const {
  const int64_t head_dim = config_.d_model / config_.num_heads;
  return 4 * len * config_.d_model + len * len + head_dim * len;
}

void MultiHeadSelfAttention::Serve(const float* x, int64_t len,
                                   float* scratch, float* out) const {
  const int64_t d = config_.d_model;
  const int64_t head_dim = d / config_.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  float* q = scratch;
  float* k = q + len * d;
  float* v = k + len * d;
  float* context = v + len * d;
  float* scores = context + len * d;
  float* kt = scores + len * len;

  wq_.Serve(x, len, q);
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
    tensor::ZeroRows(scores, len, len, len);
    tensor::ServingGemm(q + col, d, kt, len, /*trans_b=*/false, scores, len,
                        len, head_dim, len);
    tensor::ScaleSoftmaxRows(scores, len, len, scale);
    tensor::ZeroRows(context + col, d, len, head_dim);
    tensor::ServingGemm(scores, len, v + col, d, /*trans_b=*/false,
                        context + col, d, len, len, head_dim);
  }
  wo_.Serve(context, len, out);
}

}  // namespace explainti::nn
