#ifndef EXPLAINTI_TESTS_GRADCHECK_H_
#define EXPLAINTI_TESTS_GRADCHECK_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "tensor/tensor.h"
#include "util/logging.h"

namespace explainti::tensor {

/// Result of a finite-difference gradient check.
struct GradCheckResult {
  /// Largest |analytic - numeric| over all checked entries.
  float max_abs_error = 0.0f;
  /// Largest relative error max(|a-n| / max(|a|,|n|,1e-3)).
  float max_rel_error = 0.0f;
  /// Number of gradient entries compared.
  int64_t entries_checked = 0;
};

/// Verifies the analytic gradients of `loss_fn` against central finite
/// differences.
///
/// `loss_fn` must rebuild the computation graph from the *current values*
/// of `inputs` and return a scalar loss tensor. The checker perturbs each
/// input entry by ±`epsilon`, re-evaluates the loss, and compares the
/// numeric slope with the gradient produced by Backward(). Used by the
/// tensor test suite to certify every op's backward implementation.
inline GradCheckResult GradCheck(const std::function<Tensor()>& loss_fn,
                                 std::vector<Tensor> inputs,
                                 float epsilon = 1e-3f) {
  for (Tensor& input : inputs) {
    CHECK(input.defined() && input.requires_grad())
        << "GradCheck inputs must require gradients";
    input.ZeroGrad();
  }

  // Analytic pass.
  Tensor loss = loss_fn();
  CHECK_EQ(loss.size(), 1) << "GradCheck loss must be scalar";
  loss.Backward();

  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (Tensor& input : inputs) {
    analytic.emplace_back(input.grad(), input.grad() + input.size());
  }

  GradCheckResult result;
  for (size_t t = 0; t < inputs.size(); ++t) {
    Tensor& input = inputs[t];
    float* values = input.data();
    for (int64_t i = 0; i < input.size(); ++i) {
      const float saved = values[i];
      values[i] = saved + epsilon;
      const float plus = loss_fn().item();
      values[i] = saved - epsilon;
      const float minus = loss_fn().item();
      values[i] = saved;
      const float numeric = (plus - minus) / (2.0f * epsilon);
      const float a = analytic[t][static_cast<size_t>(i)];
      const float abs_err = std::abs(a - numeric);
      const float rel_err =
          abs_err / std::max({std::abs(a), std::abs(numeric), 1e-3f});
      result.max_abs_error = std::max(result.max_abs_error, abs_err);
      result.max_rel_error = std::max(result.max_rel_error, rel_err);
      ++result.entries_checked;
    }
  }
  return result;
}

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TESTS_GRADCHECK_H_
