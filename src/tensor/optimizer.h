#ifndef EXPLAINTI_TENSOR_OPTIMIZER_H_
#define EXPLAINTI_TENSOR_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace explainti::tensor {

/// Linearly decreasing learning-rate schedule with warmup, as used by the
/// paper ("learning rate is set to 5e-5 with a linearly decreasing
/// learning rate schedule").
class LinearSchedule {
 public:
  /// `total_steps` is the number of optimiser steps over the whole run;
  /// `warmup_steps` ramp linearly from 0 to `base_lr`, after which the rate
  /// decays linearly to 0 at `total_steps`.
  LinearSchedule(float base_lr, int64_t total_steps, int64_t warmup_steps = 0);

  /// Learning rate at optimiser step `step` (0-based).
  float LearningRate(int64_t step) const;

 private:
  float base_lr_;
  int64_t total_steps_;
  int64_t warmup_steps_;
};

/// Configuration for AdamW.
struct AdamWOptions {
  float learning_rate = 5e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
  /// Gradient clipping by global L2 norm; <= 0 disables.
  float max_grad_norm = 1.0f;
};

/// AdamW (decoupled weight decay) over a fixed set of parameter tensors.
///
/// Parameters are leaves with `requires_grad() == true`; the trainer calls
/// `ZeroGrad()`, runs forward/backward (possibly accumulating several
/// samples), then `Step()`.
///
/// Steps are NaN-safe: when any accumulated gradient is non-finite the
/// update is skipped entirely — weights and moment estimates stay
/// untouched — and `Step()` returns false (`skipped_steps()` counts them).
/// Trainers detect the skip and apply their own recovery policy (see
/// `ExplainTiModel::Fit()`'s skip/rollback loop).
class AdamW {
 public:
  AdamW(std::vector<Tensor> parameters, AdamWOptions options);

  /// Zeroes every parameter's gradient.
  void ZeroGrad();

  /// Applies one AdamW update using the current gradients and
  /// `learning_rate` (pass the schedule's value; falls back to the
  /// configured rate when negative). Returns false — without touching
  /// weights or moments — when any gradient is non-finite.
  bool Step(float learning_rate = -1.0f);

  /// Zeroes the moment estimates and the step counter. Called after a
  /// parameter rollback: stale moments would otherwise re-apply the very
  /// update direction that diverged.
  void ResetState();

  /// Restores moment estimates and step counter saved from an earlier run
  /// (checkpoint resume). Shapes must match the parameter set.
  util::Status SetState(std::vector<std::vector<float>> m,
                        std::vector<std::vector<float>> v,
                        int64_t step_count);

  int64_t step_count() const { return step_count_; }
  int64_t skipped_steps() const { return skipped_steps_; }
  const std::vector<Tensor>& parameters() const { return parameters_; }
  /// First/second moment estimates, indexed like `parameters()`; exposed
  /// for checkpointing.
  const std::vector<std::vector<float>>& first_moments() const { return m_; }
  const std::vector<std::vector<float>>& second_moments() const {
    return v_;
  }

 private:
  std::vector<Tensor> parameters_;
  AdamWOptions options_;
  std::vector<std::vector<float>> m_;  // First-moment estimates.
  std::vector<std::vector<float>> v_;  // Second-moment estimates.
  int64_t step_count_ = 0;
  int64_t skipped_steps_ = 0;
};

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_OPTIMIZER_H_
