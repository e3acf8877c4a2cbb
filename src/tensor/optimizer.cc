#include "tensor/optimizer.h"

#include <cmath>

#include "util/logging.h"

namespace explainti::tensor {

namespace {
/// AdamW's denominator guard.
constexpr float kEps = 1e-8f;
}  // namespace

LinearSchedule::LinearSchedule(float base_lr, int64_t total_steps,
                               int64_t warmup_steps)
    : base_lr_(base_lr),
      total_steps_(total_steps),
      warmup_steps_(warmup_steps) {
  CHECK_GT(total_steps, 0);
  CHECK_GE(warmup_steps, 0);
  CHECK_LE(warmup_steps, total_steps);
}

float LinearSchedule::LearningRate(int64_t step) const {
  if (step < warmup_steps_) {
    return base_lr_ * static_cast<float>(step + 1) /
           static_cast<float>(warmup_steps_);
  }
  if (step >= total_steps_) return 0.0f;
  const float remaining = static_cast<float>(total_steps_ - step) /
                          static_cast<float>(total_steps_ - warmup_steps_);
  return base_lr_ * remaining;
}

AdamW::AdamW(std::vector<Tensor> parameters, AdamWOptions options)
    : parameters_(std::move(parameters)), options_(options) {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Tensor& p : parameters_) {
    CHECK(p.defined() && p.requires_grad())
        << "AdamW parameters must be trainable leaves";
    m_.emplace_back(p.size(), 0.0f);
    v_.emplace_back(p.size(), 0.0f);
  }
}

void AdamW::ZeroGrad() {
  for (Tensor& p : parameters_) p.ZeroGrad();
}

bool AdamW::Step(float learning_rate) {
  const float lr = learning_rate >= 0.0f ? learning_rate
                                         : options_.learning_rate;

  // Global-norm accumulation doubles as the non-finite gradient gate: a
  // single NaN/Inf poisons the norm, and the whole update is skipped with
  // weights and moments untouched.
  double total_sq = 0.0;
  for (const Tensor& p : parameters_) {
    if (!p.has_grad()) continue;
    const float* g = p.grad();
    for (int64_t i = 0; i < p.size(); ++i) {
      total_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  if (!std::isfinite(total_sq)) {
    ++skipped_steps_;
    LOG(WARNING) << "AdamW: non-finite gradient, skipping step "
                 << step_count_ + 1 << " (skip #" << skipped_steps_ << ")";
    return false;
  }

  float clip_scale = 1.0f;
  if (options_.max_grad_norm > 0.0f) {
    const float norm = static_cast<float>(std::sqrt(total_sq));
    if (norm > options_.max_grad_norm) {
      clip_scale = options_.max_grad_norm / (norm + 1e-12f);
    }
  }

  ++step_count_;
  const float bias1 = 1.0f - std::pow(options_.beta1,
                                      static_cast<float>(step_count_));
  const float bias2 = 1.0f - std::pow(options_.beta2,
                                      static_cast<float>(step_count_));

  for (size_t idx = 0; idx < parameters_.size(); ++idx) {
    Tensor& p = parameters_[idx];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.grad();
    auto& m = m_[idx];
    auto& v = v_[idx];
    for (int64_t i = 0; i < p.size(); ++i) {
      const float gi = g[i] * clip_scale;
      m[i] = options_.beta1 * m[i] + (1.0f - options_.beta1) * gi;
      v[i] = options_.beta2 * v[i] + (1.0f - options_.beta2) * gi * gi;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      // Decoupled weight decay (AdamW): decay applied to weights directly.
      w[i] -= lr * (m_hat / (std::sqrt(v_hat) + kEps) +
                    options_.weight_decay * w[i]);
    }
  }
  return true;
}

void AdamW::ResetState() {
  for (auto& m : m_) std::fill(m.begin(), m.end(), 0.0f);
  for (auto& v : v_) std::fill(v.begin(), v.end(), 0.0f);
  step_count_ = 0;
}

util::Status AdamW::SetState(std::vector<std::vector<float>> m,
                             std::vector<std::vector<float>> v,
                             int64_t step_count) {
  if (m.size() != parameters_.size() || v.size() != parameters_.size()) {
    return util::Status::InvalidArgument(
        "optimizer state tensor count mismatch");
  }
  for (size_t i = 0; i < parameters_.size(); ++i) {
    if (static_cast<int64_t>(m[i].size()) != parameters_[i].size() ||
        static_cast<int64_t>(v[i].size()) != parameters_[i].size()) {
      return util::Status::InvalidArgument(
          "optimizer state size mismatch at parameter " + std::to_string(i));
    }
  }
  m_ = std::move(m);
  v_ = std::move(v);
  step_count_ = step_count;
  return util::Status::OK();
}

}  // namespace explainti::tensor
