#ifndef EXPLAINTI_NN_EMBEDDINGS_H_
#define EXPLAINTI_NN_EMBEDDINGS_H_

#include <vector>

#include "nn/exec_context.h"
#include "nn/module.h"
#include "nn/transformer_config.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// Input embeddings: token + learned position (+ optional segment),
/// followed by layer normalisation and dropout, exactly as in BERT.
class TransformerEmbeddings : public Module {
 public:
  TransformerEmbeddings(const TransformerConfig& config, util::Rng& rng);

  /// Embeds a token-id sequence. `segments` may be empty (all zeros) and is
  /// ignored when the config disables segment embeddings. Returns [L, d].
  tensor::Tensor Forward(const std::vector<int>& ids,
                         const std::vector<int>& segments,
                         const ExecContext& ctx) const;

  /// Serving forward on a raw buffer: out [L, d] receives what the
  /// eval-mode Forward returns, from one fused gather + LayerNorm pass.
  /// Same guards as Forward.
  void Serve(const std::vector<int>& ids, const std::vector<int>& segments,
             float* out) const;

 private:
  /// CHECKs `ids` (and `segments`) the way both forwards require; returns
  /// whether the segment term applies.
  bool UsesSegments(const std::vector<int>& ids,
                    const std::vector<int>& segments) const;

  TransformerConfig config_;
  tensor::Tensor token_table_;
  tensor::Tensor position_table_;
  tensor::Tensor segment_table_;
  tensor::Tensor ln_gamma_;
  tensor::Tensor ln_beta_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_EMBEDDINGS_H_
