#pragma once

#include <cstdint>
#include <span>

namespace explainti::tensor {

/// y[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))) with x = x[i]:
/// the tanh-approximation GELU of both the training tape's Gelu op and the
/// serving FFN's fused bias+GELU pass. y may alias x. Runs the widest of
/// GeluBodies() that this CPU executes.
void GeluInto(const float* x, float* y, int64_t n);

/// GeluInto that also writes t[i], the tanh it took at x[i], so that the
/// backward pass need not compute it again. t must not alias x or y.
void GeluWithTanhInto(const float* x, float* y, float* t, int64_t n);

/// gx[i] += g[i] * gelu'(x[i]), where t[i] is the tanh that
/// GeluWithTanhInto wrote for x[i]: the Gelu op's backward pass.
void GeluGradAccumulate(const float* x, const float* t, const float* g,
                        float* gx, int64_t n);

/// One compilation of the GELU body, `lanes` floats per vector. Its tanh
/// is a vector port of the single-precision fdlibm tanh and expm1 of glibc
/// 2.36 (sysdeps/ieee754/flt-32): every lane runs the same float
/// operations, in the same order, as the scalar branch its input selects,
/// so each tanh is bit-identical to that libm's float tanh on every input,
/// NaN aside, which maps to a NaN. Every body therefore computes the same
/// bits; they differ only in speed.
struct GeluBody {
  int lanes;
  /// Whether this CPU executes the body's instructions.
  bool runs_here;
  /// GeluWithTanhInto, or GeluInto when t is null.
  void (*gelu_into)(const float* x, float* y, float* t, int64_t n);
};

/// Every body in this build, narrowest first: 4 lanes (SSE2 on x86-64,
/// NEON on aarch64) and, on x86-64, 16 (x86-64-v4, AVX-512). The functions
/// above run the widest one that runs here, picked once per process.
std::span<const GeluBody> GeluBodies();

/// y[i] = tanh(x[i]) for i in [0, n) with `body`'s tanh, which must run
/// here; y may alias x. Test-only: no product code calls it (it is a root
/// of ci/reachable_allowlist.txt). It lets the tests prove each body's
/// tanh on all 2^32 floats, which the GELU's tanh arguments do not cover.
void TanhInto(const GeluBody& body, const float* x, float* y, int64_t n);

}  // namespace explainti::tensor
