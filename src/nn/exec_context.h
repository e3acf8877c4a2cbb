#ifndef EXPLAINTI_NN_EXEC_CONTEXT_H_
#define EXPLAINTI_NN_EXEC_CONTEXT_H_

#include "tensor/tensor.h"
#include "util/rng.h"

namespace explainti::nn {

/// How a forward pass executes.
enum class ExecMode {
  /// Builds the autograd tape; dropout active. Requires an RNG.
  kTrain,
  /// Builds the tape (no Backward expected) with dropout disabled.
  kEval,
};

/// Execution context threaded through the tape encoder stack: mode + RNG.
/// Serving never runs this stack (it runs the modules' raw-buffer Serve
/// forwards), so the tape has exactly these two modes; the context stays
/// trivially copyable and safe to share across the threads of a parallel
/// region.
struct ExecContext {
  ExecMode mode = ExecMode::kEval;
  util::Rng* rng = nullptr;

  static ExecContext Train(util::Rng& rng) {
    return ExecContext{ExecMode::kTrain, &rng};
  }
  static ExecContext Eval(util::Rng* rng = nullptr) {
    return ExecContext{ExecMode::kEval, rng};
  }

  bool training() const { return mode == ExecMode::kTrain; }
};

/// Dropout dispatch on the execution mode: real dropout when training,
/// `x` itself in tape-eval.
tensor::Tensor ApplyDropout(const tensor::Tensor& x, float p,
                            const ExecContext& ctx);

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_EXEC_CONTEXT_H_
