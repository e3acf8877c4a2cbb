#include "tensor/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace explainti::tensor {
namespace {

TEST(LinearScheduleTest, WarmupRampsLinearly) {
  LinearSchedule schedule(1.0f, 100, 10);
  EXPECT_NEAR(schedule.LearningRate(0), 0.1f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(4), 0.5f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(9), 1.0f, 1e-6f);
}

TEST(LinearScheduleTest, DecaysToZero) {
  LinearSchedule schedule(1.0f, 100, 0);
  EXPECT_NEAR(schedule.LearningRate(0), 1.0f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(50), 0.5f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(100), 0.0f, 1e-6f);
  EXPECT_NEAR(schedule.LearningRate(500), 0.0f, 1e-6f);
}

TEST(AdamWTest, MinimizesQuadratic) {
  // Minimise sum((w - target)^2); AdamW should converge close to target.
  Tensor w = Tensor::FromVector({3}, {5.0f, -4.0f, 2.0f});
  w.set_requires_grad(true);
  Tensor target = Tensor::FromVector({3}, {1.0f, 2.0f, -1.0f});

  AdamWOptions options;
  options.learning_rate = 0.1f;
  options.weight_decay = 0.0f;
  AdamW optimizer({w}, options);

  for (int step = 0; step < 300; ++step) {
    optimizer.ZeroGrad();
    Tensor diff = Sub(w, target);
    Tensor loss = Sum(Mul(diff, diff));
    loss.Backward();
    optimizer.Step();
  }
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(w.data()[i], target.data()[i], 0.05f);
  }
}

TEST(AdamWTest, WeightDecayShrinksWeightsWithZeroGradient) {
  Tensor w = Tensor::Full({2}, 4.0f);
  w.set_requires_grad(true);
  w.grad();  // Allocate a zero gradient.
  AdamWOptions options;
  options.learning_rate = 0.1f;
  options.weight_decay = 0.5f;
  options.max_grad_norm = 0.0f;
  AdamW optimizer({w}, options);
  optimizer.Step();
  EXPECT_LT(w.data()[0], 4.0f);
}

TEST(AdamWTest, GradientClippingBoundsUpdateDirection) {
  Tensor w = Tensor::Full({1}, 0.0f);
  w.set_requires_grad(true);
  AdamWOptions options;
  options.learning_rate = 1.0f;
  options.weight_decay = 0.0f;
  options.max_grad_norm = 1.0f;
  AdamW optimizer({w}, options);

  optimizer.ZeroGrad();
  Tensor loss = Scale(Sum(w), 1e6f);  // Huge gradient.
  loss.Backward();
  optimizer.Step();
  // Adam normalises by sqrt(v); with one step update magnitude ~ lr.
  EXPECT_LE(std::abs(w.data()[0]), 1.5f);
}

TEST(AdamWTest, StepCountAdvances) {
  Tensor w = Tensor::Full({1}, 1.0f);
  w.set_requires_grad(true);
  AdamW optimizer({w}, AdamWOptions{});
  EXPECT_EQ(optimizer.step_count(), 0);
  optimizer.Step();
  optimizer.Step();
  EXPECT_EQ(optimizer.step_count(), 2);
}

}  // namespace
}  // namespace explainti::tensor
