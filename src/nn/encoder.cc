#include "nn/encoder.h"

#include <algorithm>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::nn {

EncoderLayer::EncoderLayer(const TransformerConfig& config, util::Rng& rng)
    : config_(config),
      attention_(config, rng),
      ffn_in_(config.d_model, config.ffn_dim, rng),
      ffn_out_(config.ffn_dim, config.d_model, rng) {
  ln1_gamma_ = AddParameter(tensor::Tensor::Full({config.d_model}, 1.0f));
  ln1_beta_ = AddParameter(tensor::Tensor::Zeros({config.d_model}));
  ln2_gamma_ = AddParameter(tensor::Tensor::Full({config.d_model}, 1.0f));
  ln2_beta_ = AddParameter(tensor::Tensor::Zeros({config.d_model}));
  AddChild(&attention_);
  AddChild(&ffn_in_);
  AddChild(&ffn_out_);
}

tensor::Tensor EncoderLayer::Forward(const tensor::Tensor& x,
                                     const tensor::Tensor& mask,
                                     const ExecContext& ctx) const {
  tensor::Tensor attn = attention_.Forward(x, mask, ctx);
  attn = ApplyDropout(attn, config_.dropout, ctx);
  tensor::Tensor h =
      tensor::LayerNorm(tensor::Add(x, attn), ln1_gamma_, ln1_beta_);

  tensor::Tensor ffn = ffn_out_.Forward(tensor::Gelu(ffn_in_.Forward(h)));
  ffn = ApplyDropout(ffn, config_.dropout, ctx);
  return tensor::LayerNorm(tensor::Add(h, ffn), ln2_gamma_, ln2_beta_);
}

int64_t EncoderLayer::ServeScratchFloats(int64_t len) const {
  return 2 * len * config_.d_model +
         std::max(attention_.ServeScratchFloats(len), len * config_.ffn_dim);
}

void EncoderLayer::Serve(float* x, int64_t len, float* scratch) const {
  const int64_t d = config_.d_model;
  float* h = scratch;
  float* sublayer = h + len * d;  // Attention output, then FFN output.
  float* work = sublayer + len * d;  // Attention scratch, then FFN hidden.
  attention_.Serve(x, len, work, sublayer);
  tensor::ResidualLayerNormRows(x, sublayer, h, len, d, ln1_gamma_.data(),
                                ln1_beta_.data(), tensor::kLayerNormEps);
  ffn_in_.Serve(h, len, work, /*gelu=*/true);
  ffn_out_.Serve(work, len, sublayer);
  tensor::ResidualLayerNormRows(h, sublayer, x, len, d, ln2_gamma_.data(),
                                ln2_beta_.data(), tensor::kLayerNormEps);
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& config,
                                       util::Rng& rng)
    : config_(config), embeddings_(config, rng) {
  AddChild(&embeddings_);
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int64_t i = 0; i < config.num_layers; ++i) {
    layers_.push_back(std::make_unique<EncoderLayer>(config, rng));
    AddChild(layers_.back().get());
  }
}

tensor::Tensor TransformerEncoder::Forward(const std::vector<int>& ids,
                                           const std::vector<int>& segments,
                                           const ExecContext& ctx,
                                           const tensor::Tensor& mask) const {
  CHECK(!ctx.training() || ctx.rng != nullptr)
      << "training forward requires an RNG";
  tensor::Tensor x = embeddings_.Forward(ids, segments, ctx);
  for (const auto& layer : layers_) {
    x = layer->Forward(x, mask, ctx);
  }
  return x;
}

int64_t TransformerEncoder::ServeScratchFloats(int64_t len) const {
  return len * config_.d_model +
         (layers_.empty() ? 0 : layers_.front()->ServeScratchFloats(len));
}

void TransformerEncoder::Serve(const std::vector<int>& ids,
                               const std::vector<int>& segments,
                               float* scratch, float* out,
                               int64_t rows) const {
  const int64_t len = static_cast<int64_t>(ids.size());
  float* x = scratch;
  embeddings_.Serve(ids, segments, x);
  CHECK(rows >= 1 && rows <= len)
      << "rows " << rows << " outside [1, " << len << "]";
  for (const auto& layer : layers_) {
    layer->Serve(x, len, x + len * config_.d_model);
  }
  std::copy(x, x + rows * config_.d_model, out);
}

}  // namespace explainti::nn
