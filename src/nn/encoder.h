#ifndef EXPLAINTI_NN_ENCODER_H_
#define EXPLAINTI_NN_ENCODER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/embeddings.h"
#include "nn/exec_context.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/transformer_config.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// One post-LN transformer encoder block:
///   x = LN(x + SelfAttention(x)); x = LN(x + FFN(x)).
class EncoderLayer : public Module {
 public:
  EncoderLayer(const TransformerConfig& config, util::Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x, const tensor::Tensor& mask,
                         const ExecContext& ctx) const;

  /// Serving forward on raw buffers, unmasked: replaces the first
  /// `q_rows` rows of x [len, d] in place with those rows of what the
  /// eval-mode Forward returns, 1 <= q_rows <= len. Attention keys and
  /// values still read all `len` input rows; every stage after them runs
  /// over `q_rows` rows only, bit-identical to a full-length pass. Rows
  /// past `q_rows` are left stale. `scratch` must hold
  /// ServeScratchFloats(len) floats.
  void Serve(float* x, int64_t len, int64_t q_rows, float* scratch) const;
  int64_t ServeScratchFloats(int64_t len) const;

 private:
  TransformerConfig config_;
  MultiHeadSelfAttention attention_;
  Linear ffn_in_;
  Linear ffn_out_;
  tensor::Tensor ln1_gamma_, ln1_beta_;
  tensor::Tensor ln2_gamma_, ln2_beta_;
};

/// The full mini-BERT encoder M: embeddings plus a stack of encoder layers.
///
/// `Forward` maps a token-id sequence to contextual embeddings E [L, d];
/// E[0] is the [CLS] embedding used throughout ExplainTI (Eq. 1).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& config, util::Rng& rng);

  /// Encodes one sequence. `segments` may be empty; `mask` (optional,
  /// [L, L] additive) supports structure-aware baselines.
  tensor::Tensor Forward(const std::vector<int>& ids,
                         const std::vector<int>& segments,
                         const ExecContext& ctx,
                         const tensor::Tensor& mask = tensor::Tensor()) const;

  /// Serving forward on raw buffers: runs the eval-mode Forward's
  /// arithmetic (no mask) with no tensor graph and no allocation, and
  /// copies the first `rows` rows of E into `out` [rows, d]. Every layer
  /// but the last runs over all L rows; the last computes only the
  /// `rows` copied out, so `rows` = 1 (the [CLS] row Predict and
  /// EncodeBatch read) skips the rest of its work. Outputs are
  /// bit-identical to Forward's first `rows` rows. `scratch` must hold
  /// ServeScratchFloats(ids.size()) floats; its regions are fixed and
  /// reused layer after layer. Same guards as Forward.
  void Serve(const std::vector<int>& ids, const std::vector<int>& segments,
             float* scratch, float* out, int64_t rows) const;
  int64_t ServeScratchFloats(int64_t len) const;

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  TransformerEmbeddings embeddings_;
  std::vector<std::unique_ptr<EncoderLayer>> layers_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_ENCODER_H_
