#ifndef EXPLAINTI_NN_LINEAR_H_
#define EXPLAINTI_NN_LINEAR_H_

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// Affine map y = x W + b with W [in, out], b [out].
///
/// Accepts rank-1 [in] or rank-2 [m, in] inputs. Xavier-uniform
/// initialisation.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, util::Rng& rng);

  tensor::Tensor Forward(const tensor::Tensor& x) const;

  /// Serving forward on raw row-major buffers: y[m, out] = x[m, in] W + b,
  /// bit-identical to Forward (the same GEMM kernel, then the bias add).
  /// With `gelu`, y = gelu(x W + b), the bias add and GELU fused into one
  /// pass, bit-identical to Gelu(Forward(x)).
  void Serve(const float* x, int64_t m, float* y, bool gelu = false) const;

  int64_t in_features() const { return weight_.dim(0); }
  int64_t out_features() const { return weight_.dim(1); }

 private:
  tensor::Tensor weight_;
  tensor::Tensor bias_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_LINEAR_H_
