#ifndef EXPLAINTI_NN_HEADS_H_
#define EXPLAINTI_NN_HEADS_H_

#include "nn/linear.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// Masked-language-model head: projects a token embedding [d] (or a batch
/// of masked-position embeddings [m, d]) to vocabulary logits.
class MlmHead : public Module {
 public:
  MlmHead(int64_t d_model, int64_t vocab_size, util::Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& hidden) const;

 private:
  Linear projection_;
};

/// Classification head (Eq. 1 / Eq. 9): logits = W x + b over `num_labels`.
/// The sigma (softmax/sigmoid) lives in the loss, as usual.
class ClassifierHead : public Module {
 public:
  ClassifierHead(int64_t in_features, int64_t num_labels, util::Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& features) const;

  /// The underlying affine map; serving runs it through Linear::Serve.
  const Linear& projection() const { return projection_; }

 private:
  Linear projection_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_HEADS_H_
