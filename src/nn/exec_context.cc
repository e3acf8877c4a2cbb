#include "nn/exec_context.h"

#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::nn {

tensor::Tensor ApplyDropout(const tensor::Tensor& x, float p,
                            const ExecContext& ctx) {
  if (ctx.training()) {
    CHECK(ctx.rng != nullptr) << "training dropout requires an RNG";
    return tensor::Dropout(x, p, *ctx.rng, /*training=*/true);
  }
  return x;
}

}  // namespace explainti::nn
