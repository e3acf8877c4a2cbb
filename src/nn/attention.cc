#include "nn/attention.h"

#include <cmath>
#include <memory>
#include <vector>

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

}  // namespace explainti::nn
