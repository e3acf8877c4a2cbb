#include "tensor/gelu.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace explainti::tensor {

namespace {

// Four float lanes as GCC vector extensions: SSE2 on x86-64, NEON on
// aarch64. Casts between these types reinterpret the bits; a comparison
// yields an I4 lane mask (-1 or 0) that `mask ? a : b` selects with.
typedef float F4 __attribute__((vector_size(16)));
typedef int32_t I4 __attribute__((vector_size(16)));
typedef uint32_t U4 __attribute__((vector_size(16)));

inline F4 Splat(float v) { return F4{v, v, v, v}; }

// y * 2^k by adding k to the exponent field, as fdlibm's SET_FLOAT_WORD
// (unsigned, so a lane whose result is discarded cannot overflow).
inline F4 AddToExponent(F4 y, I4 k) {
  return (F4)((U4)y + ((U4)k << 23));
}

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

// Float expm1 (glibc 2.36, sysdeps/ieee754/flt-32/s_expm1f.c) for finite
// |x| < 64, the range Tanh4 calls it on. Every lane computes every branch;
// the lane's branch is selected at the end.
__attribute__((always_inline)) inline F4 Expm1(F4 x) {
  const I4 hx = (I4)x & 0x7fffffff;
  const I4 neg = (I4)x < 0;
  // k = 0 for |x| <= ln2/2, +-1 below 1.5 ln2, else x/ln2 +- 0.5
  // truncated. The +-1 and 0 reductions are the general one with t = k:
  // t * ln2_hi is then +-ln2_hi or 0 exactly, so hi, lo, r and c (0 for
  // k = 0) come out as fdlibm's branch computes them.
  I4 k = __builtin_convertvector(
      kInvLn2 * x + (neg ? Splat(-0.5f) : Splat(0.5f)), I4);
  k = hx < 0x3f851592 ? (neg | 1) : k;
  k = hx > 0x3eb17218 ? k : I4{};
  const F4 t = __builtin_convertvector(k, F4);
  const F4 hi = x - t * kLn2Hi;
  const F4 lo = t * kLn2Lo;
  const F4 r = hi - lo;
  const F4 c = (hi - r) - lo;

  const F4 hfx = 0.5f * r;
  const F4 hxs = r * hfx;
  const F4 r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F4 t3 = 3.0f - r1 * hfx;
  const F4 e = hxs * ((r1 - t3) / (6.0f - r * t3));
  const F4 y0 = r - (r * e - hxs);  // k == 0

  const F4 ek = (r * (e - c) - c) - hxs;
  const F4 y_m1 = 0.5f * (r - ek) - 0.5f;
  const F4 y_p1 = r < -0.25f ? -2.0f * (ek - (r + 0.5f))
                             : 1.0f + 2.0f * (r - ek);
  const F4 y_wide = AddToExponent(1.0f - (ek - r), k) - 1.0f;
  const F4 two_mk = (F4)((U4)(0x7f - k) << 23);  // 2^-k
  const F4 y_lo = AddToExponent((1.0f - two_mk) - (ek - r), k);
  const F4 y_hi = AddToExponent((r - (ek + two_mk)) + 1.0f, k);

  F4 y = k < 23 ? y_lo : y_hi;
  y = (k <= -2) | (k > 56) ? y_wide : y;
  y = k == 1 ? y_p1 : y;
  y = k == -1 ? y_m1 : y;
  y = k == 0 ? y0 : y;
  // |x| < 2^-25: fdlibm returns x - ((huge + x) - huge), which is x.
  return hx < 0x33000000 ? x : y;
}

// Float tanh (glibc 2.36, sysdeps/ieee754/flt-32), lane by lane.
__attribute__((always_inline)) inline F4 Tanh4(F4 x) {
  const I4 ix = (I4)x & 0x7fffffff;
  const I4 neg = (I4)x < 0;
  const I4 big = ix >= 0x3f800000;  // |x| >= 1
  const I4 nonfinite = ix >= 0x7f800000;
  // Lanes off expm1's path (|x| >= 22, inf, NaN) run it on 1.0 instead.
  const F4 ax = ix < 0x41b00000 ? (F4)ix : Splat(1.0f);
  const F4 t = Expm1(big ? 2.0f * ax : -2.0f * ax);
  // One division serves every branch: 2/(t+2) for |x| >= 1, -t/(t+2)
  // below, and the 1/x of inf/NaN's 1/x +- 1.
  const F4 q = (nonfinite ? Splat(1.0f) : big ? Splat(2.0f) : -t) /
               (nonfinite ? x : t + 2.0f);
  F4 z = big ? 1.0f - q : q;
  z = ix >= 0x41b00000 ? Splat(1.0f) : z;  // fdlibm's 1 - tiny rounds to 1
  z = neg ? -z : z;
  // |x| < 2^-55, +-0 and denormals included: fdlibm returns x * (1 + x),
  // which is x there.
  z = ix < 0x24000000 ? x : z;
  return nonfinite ? (neg ? q - 1.0f : q + 1.0f) : z;
}

constexpr float kGeluCoef = 0.044715f;
const float kSqrt2OverPi = std::sqrt(2.0f / static_cast<float>(M_PI));

// The tanh argument of the GELU, rounded as one expression in this order.
template <typename T>
__attribute__((always_inline)) inline T GeluInner(T x) {
  return kSqrt2OverPi * (x + kGeluCoef * x * x * x);
}

// y[i] = lanes(x[i]) over [0, n), two vectors per step so that their
// division chains overlap; the tail runs zero-padded and its padding
// lanes' results are dropped. y may alias x.
template <typename Lanes>
__attribute__((always_inline)) inline void Map(const float* x, float* y,
                                               int64_t n, Lanes lanes) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F4 a{}, b{};
    std::memcpy(&a, x + i, sizeof a);
    std::memcpy(&b, x + i + 4, sizeof b);
    a = lanes(a);
    b = lanes(b);
    std::memcpy(y + i, &a, sizeof a);
    std::memcpy(y + i + 4, &b, sizeof b);
  }
  for (; i < n; i += 4) {
    const size_t bytes = sizeof(float) * std::min<int64_t>(4, n - i);
    F4 a{};
    std::memcpy(&a, x + i, bytes);
    a = lanes(a);
    std::memcpy(y + i, &a, bytes);
  }
}

// The backward pass stages a block of this many tanh values on the stack.
constexpr int64_t kBlock = 64;

}  // namespace

void TanhInto(const float* x, float* y, int64_t n) {
  Map(x, y, n, [](F4 v) { return Tanh4(v); });
}

void GeluInto(const float* x, float* y, int64_t n) {
  Map(x, y, n,
      [](F4 v) { return 0.5f * v * (1.0f + Tanh4(GeluInner(v))); });
}

void GeluGradAccumulate(const float* x, const float* g, float* gx,
                        int64_t n) {
  float t[kBlock];
  for (int64_t b = 0; b < n; b += kBlock) {
    const int64_t len = std::min(kBlock, n - b);
    const float* xb = x + b;
    for (int64_t i = 0; i < len; ++i) t[i] = GeluInner(xb[i]);
    TanhInto(t, t, len);
    for (int64_t i = 0; i < len; ++i) {
      const float xi = xb[i];
      const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * xi * xi);
      const float dy =
          0.5f * (1.0f + t[i]) + 0.5f * xi * (1.0f - t[i] * t[i]) * dinner;
      gx[b + i] += g[b + i] * dy;
    }
  }
}

}  // namespace explainti::tensor
