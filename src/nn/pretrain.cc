#include "nn/pretrain.h"

#include <algorithm>

#include "nn/heads.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"
#include "text/vocab.h"
#include "util/logging.h"

namespace explainti::nn {

namespace {

/// Fraction of maskable tokens selected per sequence (BERT: 0.15).
constexpr float kMaskProb = 0.15f;

/// One masked training instance: corrupted ids plus (position, original id)
/// prediction targets.
struct MaskedInstance {
  std::vector<int> ids;
  std::vector<std::pair<int, int>> targets;  // (position, original id)
};

MaskedInstance MaskSequence(const std::vector<int>& ids, int64_t vocab_size,
                            util::Rng& rng) {
  MaskedInstance instance;
  instance.ids = ids;
  for (size_t pos = 0; pos < ids.size(); ++pos) {
    // Never mask special tokens ([PAD]..[MASK] occupy the first ids).
    if (ids[pos] < text::SpecialTokens::kCount) continue;
    if (!rng.Bernoulli(kMaskProb)) continue;
    instance.targets.emplace_back(static_cast<int>(pos), ids[pos]);
    const double roll = rng.Uniform();
    if (roll < 0.8) {
      instance.ids[pos] = text::SpecialTokens::kMask;
    } else if (roll < 0.9) {
      instance.ids[pos] = static_cast<int>(
          rng.UniformInt(static_cast<uint64_t>(vocab_size -
                                               text::SpecialTokens::kCount)) +
          text::SpecialTokens::kCount);
    }  // else keep the original token.
  }
  return instance;
}

}  // namespace

MlmPretrainStats PretrainMlm(TransformerEncoder* encoder,
                             const std::vector<std::vector<int>>& id_seqs,
                             const std::vector<std::vector<int>>& segment_seqs,
                             const MlmPretrainOptions& options) {
  CHECK(encoder != nullptr);
  CHECK_EQ(id_seqs.size(), segment_seqs.size());
  CHECK(!id_seqs.empty()) << "empty pre-training corpus";

  const TransformerConfig& config = encoder->config();
  util::Rng init_rng(options.seed);
  MlmHead head(config.d_model, config.vocab_size, init_rng);

  std::vector<tensor::Tensor> params = encoder->Parameters();
  const auto head_params = head.Parameters();
  params.insert(params.end(), head_params.begin(), head_params.end());

  tensor::AdamWOptions adam_options;
  adam_options.learning_rate = options.learning_rate;
  tensor::AdamW optimizer(params, adam_options);

  util::Rng mask_rng(options.seed + 17);
  util::Rng order_rng(options.seed + 31);
  util::Rng dropout_rng(options.seed + 47);

  // Static masking (BERT) corrupts each sequence once up front.
  std::vector<MaskedInstance> static_instances;
  if (!options.dynamic_masking) {
    static_instances.reserve(id_seqs.size());
    for (const auto& ids : id_seqs) {
      static_instances.push_back(
          MaskSequence(ids, config.vocab_size, mask_rng));
    }
  }

  MlmPretrainStats stats;
  std::vector<size_t> order(id_seqs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    order_rng.Shuffle(order);
    float epoch_loss = 0.0f;
    int64_t epoch_targets = 0;
    optimizer.ZeroGrad();
    int in_batch = 0;
    for (size_t ordinal = 0; ordinal < order.size(); ++ordinal) {
      const size_t idx = order[ordinal];
      MaskedInstance instance =
          options.dynamic_masking
              ? MaskSequence(id_seqs[idx], config.vocab_size, mask_rng)
              : static_instances[idx];
      if (instance.targets.empty()) continue;

      tensor::Tensor hidden =
          encoder->Forward(instance.ids, segment_seqs[idx],
                           ExecContext::Train(dropout_rng));
      // Project only the masked rows; the vocab-sized matmul dominates.
      std::vector<tensor::Tensor> losses;
      losses.reserve(instance.targets.size());
      for (const auto& [pos, original_id] : instance.targets) {
        tensor::Tensor logits = head.Forward(tensor::Row(hidden, pos));
        losses.push_back(tensor::CrossEntropyLoss(logits, original_id));
      }
      tensor::Tensor loss = losses[0];
      for (size_t i = 1; i < losses.size(); ++i) {
        loss = tensor::Add(loss, losses[i]);
      }
      loss = tensor::Scale(loss, 1.0f / static_cast<float>(losses.size()));
      loss.Backward();

      epoch_loss += loss.item();
      epoch_targets += static_cast<int64_t>(instance.targets.size());
      ++in_batch;
      if (in_batch == options.batch_size || ordinal + 1 == order.size()) {
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
        ++stats.steps;
      }
    }
    stats.final_epoch_loss =
        epoch_loss / static_cast<float>(std::max<size_t>(order.size(), 1));
    stats.masked_tokens_total += epoch_targets;
  }
  return stats;
}

}  // namespace explainti::nn
