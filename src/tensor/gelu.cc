#include "tensor/gelu.h"

// Every header gelu_lanes.inc uses is included here, before any
// `#pragma GCC target`, so that no inline function a header defines is
// first compiled for a wider ISA than the baseline.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace explainti::tensor {

namespace {

// fdlibm expm1's float constants, as glibc 2.36 stores them in libm's
// rodata.
constexpr float kLn2Hi = 0x1.62e3p-1f;      // 0x3f317180
constexpr float kLn2Lo = 0x1.2fefa2p-17f;   // 0x3717f7d1
constexpr float kInvLn2 = 0x1.715476p+0f;   // 0x3fb8aa3b
constexpr float kQ1 = -0x1.111112p-5f;      // 0xbd088889
constexpr float kQ2 = 0x1.a01a02p-10f;      // 0x3ad00d01
constexpr float kQ3 = -0x1.4ce19ap-14f;     // 0xb8a670cd
constexpr float kQ4 = 0x1.0cfca8p-18f;      // 0x36867e54
constexpr float kQ5 = -0x1.afdb76p-23f;     // 0xb457edbb

constexpr float kGeluCoef = 0.044715f;
const float kSqrt2OverPi = std::sqrt(2.0f / static_cast<float>(M_PI));

}  // namespace

}  // namespace explainti::tensor

// The body at each width the host may run. Every width performs the same
// float operations in the same order, so all compute the same bits; the
// file's -ffp-contract=off keeps the FMA of x86-64-v4 from fusing a
// multiply into an add.
#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
#define EXPLAINTI_GELU_LANES 16
#include "tensor/gelu_lanes.inc"
#undef EXPLAINTI_GELU_LANES
#pragma GCC pop_options
#endif

#define EXPLAINTI_GELU_LANES 4
#include "tensor/gelu_lanes.inc"
#undef EXPLAINTI_GELU_LANES

namespace explainti::tensor {

namespace {

// The widest body that runs here, picked on first use.
const GeluBody& Picked() {
  static const GeluBody* const widest = [] {
    const GeluBody* body = nullptr;
    for (const GeluBody& b : GeluBodies()) {
      if (b.runs_here) body = &b;
    }
    return body;
  }();
  return *widest;
}

}  // namespace

std::span<const GeluBody> GeluBodies() {
#if defined(__x86_64__)
  static const std::array<GeluBody, 2> bodies = [] {
    // Needed only before libgcc's own constructor has run.
    __builtin_cpu_init();
    return std::array<GeluBody, 2>{{
        {4, true, &lanes4::GeluInto},
        {16, __builtin_cpu_supports("x86-64-v4") != 0, &lanes16::GeluInto},
    }};
  }();
#else
  static const std::array<GeluBody, 1> bodies = {
      {{4, true, &lanes4::GeluInto}}};
#endif
  return bodies;
}

void TanhInto(const GeluBody& body, const float* x, float* y, int64_t n) {
#if defined(__x86_64__)
  if (body.lanes == 16) {
    lanes16::TanhInto(x, y, n);
    return;
  }
#endif
  lanes4::TanhInto(x, y, n);
}

void GeluInto(const float* x, float* y, int64_t n) {
  Picked().gelu_into(x, y, nullptr, n);
}

void GeluWithTanhInto(const float* x, float* y, float* t, int64_t n) {
  Picked().gelu_into(x, y, t, n);
}

void GeluGradAccumulate(const float* x, const float* t, const float* g,
                        float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * xi * xi);
    const float dy =
        0.5f * (1.0f + t[i]) + 0.5f * xi * (1.0f - t[i] * t[i]) * dinner;
    gx[i] += g[i] * dy;
  }
}

}  // namespace explainti::tensor
