#pragma once

#include <cstdint>

namespace explainti::tensor {

/// y[i] = tanh(x[i]) for i in [0, n); y may alias x. A four-lane port of
/// the single-precision fdlibm tanh and expm1 of glibc 2.36
/// (sysdeps/ieee754/flt-32): every lane runs the same float operations, in
/// the same order, as the scalar branch its input selects, so each output
/// is bit-identical to that libm's float tanh on every input, NaN aside,
/// which maps to a NaN.
void TanhInto(const float* x, float* y, int64_t n);

/// y[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))) with x = x[i]:
/// the tanh-approximation GELU of both the training tape's Gelu op and the
/// serving FFN's fused bias+GELU pass. y may alias x.
void GeluInto(const float* x, float* y, int64_t n);

/// gx[i] += g[i] * gelu'(x[i]): the Gelu op's backward pass.
void GeluGradAccumulate(const float* x, const float* g, float* gx,
                        int64_t n);

}  // namespace explainti::tensor
