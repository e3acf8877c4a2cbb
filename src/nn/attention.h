#ifndef EXPLAINTI_NN_ATTENTION_H_
#define EXPLAINTI_NN_ATTENTION_H_

#include "nn/exec_context.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/transformer_config.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// Multi-head scaled dot-product self-attention (BERT-style).
///
/// Sequences here are unpadded (one sample at a time), so no padding mask
/// is needed; an optional additive attention mask [L, L] supports the TURL
/// baseline's structure-aware visibility matrix (0 where attention is
/// allowed, a large negative value where it is blocked).
class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(const TransformerConfig& config, util::Rng& rng);

  /// x: [L, d] -> [L, d]. `mask` may be undefined (no masking).
  tensor::Tensor Forward(const tensor::Tensor& x, const tensor::Tensor& mask,
                         const ExecContext& ctx) const;

  /// Serving forward on raw buffers, unmasked: out [len, d] receives what
  /// the eval-mode Forward returns for x [len, d]. `scratch` must hold
  /// ServeScratchFloats(len) floats.
  void Serve(const float* x, int64_t len, float* scratch, float* out) const;
  int64_t ServeScratchFloats(int64_t len) const;

 private:
  TransformerConfig config_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_ATTENTION_H_
