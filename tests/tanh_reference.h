#ifndef EXPLAINTI_TESTS_TANH_REFERENCE_H_
#define EXPLAINTI_TESTS_TANH_REFERENCE_H_

// The reference the tensor/gelu.h tanh port is proven against: the C
// library's float tanh, when that is glibc 2.36's fdlibm code.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace explainti::tensor::testing {

/// True if std::tanh(float) is the code the port reproduces: glibc 2.36,
/// against which every one of the 2^32 inputs was checked. On another
/// libm the port's own outputs stay pinned by a digest instead.
inline bool LibmIsPortTarget() {
#if defined(__GLIBC__)
  return std::string(gnu_get_libc_version()) == "2.36";
#else
  return false;
#endif
}

inline uint32_t FloatBits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

inline float BitsToFloat(uint32_t bits) {
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Bit-equal, except that any NaN matches any NaN.
inline bool SameTanh(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return FloatBits(got) == FloatBits(want);
}

}  // namespace explainti::tensor::testing

#endif  // EXPLAINTI_TESTS_TANH_REFERENCE_H_
