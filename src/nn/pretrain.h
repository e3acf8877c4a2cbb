#ifndef EXPLAINTI_NN_PRETRAIN_H_
#define EXPLAINTI_NN_PRETRAIN_H_

#include <cstdint>
#include <vector>

#include "nn/encoder.h"

namespace explainti::nn {

/// Options for masked-language-model pre-training.
struct MlmPretrainOptions {
  int epochs = 2;
  float learning_rate = 1e-3f;
  /// BERT masks once (static); RoBERTa redraws the mask every epoch
  /// (dynamic).
  bool dynamic_masking = false;
  int batch_size = 8;
  uint64_t seed = 1;
};

/// Result of a pre-training run.
struct MlmPretrainStats {
  float final_epoch_loss = 0.0f;
  int64_t masked_tokens_total = 0;
  int64_t steps = 0;
};

/// Pre-trains `encoder` in place with the BERT masked-LM objective over
/// the given corpus of token-id sequences.
///
/// Per selected position the 80/10/10 rule applies (replace with [MASK] /
/// random token / keep). This is the "pre-trained transformer encoder"
/// stage that ExplainTI and the transformer baselines fine-tune; see
/// DESIGN.md for the substitution rationale.
MlmPretrainStats PretrainMlm(TransformerEncoder* encoder,
                             const std::vector<std::vector<int>>& id_seqs,
                             const std::vector<std::vector<int>>& segment_seqs,
                             const MlmPretrainOptions& options);

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_PRETRAIN_H_
