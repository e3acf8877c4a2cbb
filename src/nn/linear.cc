#include "nn/linear.h"

#include <cmath>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::nn {

Linear::Linear(int64_t in_features, int64_t out_features, util::Rng& rng) {
  CHECK_GT(in_features, 0);
  CHECK_GT(out_features, 0);
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features +
                                                          out_features));
  weight_ = AddParameter(tensor::Tensor::RandUniform({in_features, out_features},
                                                     rng, bound));
  bias_ = AddParameter(tensor::Tensor::Zeros({out_features}));
}

tensor::Tensor Linear::Forward(const tensor::Tensor& x) const {
  return tensor::Add(tensor::MatMul(x, weight_), bias_);
}

void Linear::Serve(const float* x, int64_t m, float* y, bool gelu) const {
  const int64_t in = in_features();
  const int64_t out = out_features();
  tensor::ZeroRows(y, out, m, out);
  tensor::ServingGemm(x, in, weight_.data(), out, /*trans_b=*/false, y, out,
                      m, in, out);
  if (gelu) {
    tensor::BiasGeluRows(y, out, bias_.data(), m, out);
  } else {
    tensor::AddBiasRows(y, out, bias_.data(), m, out);
  }
}

}  // namespace explainti::nn
