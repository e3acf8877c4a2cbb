#include "nn/embeddings.h"

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::nn {

TransformerConfig TransformerConfig::ForBaseModel(
    const std::string& base_model, int64_t vocab_size) {
  TransformerConfig config;
  config.vocab_size = vocab_size;
  if (base_model == "bert") {
    config.use_segments = true;
  } else if (base_model == "roberta") {
    config.use_segments = false;
  } else {
    LOG(FATAL) << "unknown base model: " << base_model;
  }
  return config;
}

TransformerEmbeddings::TransformerEmbeddings(const TransformerConfig& config,
                                             util::Rng& rng)
    : config_(config) {
  CHECK_GT(config.vocab_size, 0);
  constexpr float kInitStd = 0.02f;  // BERT's truncated-normal stddev.
  token_table_ = AddParameter(tensor::Tensor::Randn(
      {config.vocab_size, config.d_model}, rng, kInitStd));
  position_table_ = AddParameter(
      tensor::Tensor::Randn({config.max_len, config.d_model}, rng, kInitStd));
  segment_table_ =
      AddParameter(tensor::Tensor::Randn({2, config.d_model}, rng, kInitStd));
  ln_gamma_ = AddParameter(tensor::Tensor::Full({config.d_model}, 1.0f));
  ln_beta_ = AddParameter(tensor::Tensor::Zeros({config.d_model}));
}

bool TransformerEmbeddings::UsesSegments(
    const std::vector<int>& ids, const std::vector<int>& segments) const {
  const int64_t len = static_cast<int64_t>(ids.size());
  CHECK_GT(len, 0);
  CHECK_LE(len, config_.max_len)
      << "sequence longer than max_len: " << len;
  if (!config_.use_segments || segments.empty()) return false;
  CHECK_EQ(segments.size(), ids.size());
  return true;
}

tensor::Tensor TransformerEmbeddings::Forward(const std::vector<int>& ids,
                                              const std::vector<int>& segments,
                                              const ExecContext& ctx) const {
  const bool use_segments = UsesSegments(ids, segments);
  tensor::Tensor x = tensor::EmbeddingLookup(token_table_, ids);

  std::vector<int> positions(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) positions[i] = static_cast<int>(i);
  x = tensor::Add(x, tensor::EmbeddingLookup(position_table_, positions));

  if (use_segments) {
    x = tensor::Add(x, tensor::EmbeddingLookup(segment_table_, segments));
  }

  x = tensor::LayerNorm(x, ln_gamma_, ln_beta_);
  return ApplyDropout(x, config_.dropout, ctx);
}

void TransformerEmbeddings::Serve(const std::vector<int>& ids,
                                  const std::vector<int>& segments,
                                  float* out) const {
  const bool use_segments = UsesSegments(ids, segments);
  tensor::EmbedLayerNormRows(
      token_table_.data(), position_table_.data(),
      use_segments ? segment_table_.data() : nullptr, ids.data(),
      use_segments ? segments.data() : nullptr, out,
      static_cast<int64_t>(ids.size()), config_.d_model, ln_gamma_.data(),
      ln_beta_.data(), tensor::kLayerNormEps);
}

}  // namespace explainti::nn
