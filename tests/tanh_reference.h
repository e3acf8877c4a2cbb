#ifndef EXPLAINTI_TESTS_TANH_REFERENCE_H_
#define EXPLAINTI_TESTS_TANH_REFERENCE_H_

// The reference the tensor/gelu.h tanh port is proven against: the C
// library's float tanh, when that is glibc 2.36's fdlibm code; and the
// port's bodies that this CPU runs.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "tensor/gelu.h"

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

/// The bodies of GeluBodies() that this CPU runs. A body it cannot run is
/// named on stdout as skipped.
inline std::vector<GeluBody> RunnableGeluBodies() {
  std::vector<GeluBody> bodies;
  for (const GeluBody& body : GeluBodies()) {
    if (body.runs_here) {
      bodies.push_back(body);
    } else {
      std::cout << "skipped: the " << body.lanes
                << "-lane body, which this CPU cannot run\n";
    }
  }
  return bodies;
}

/// Bit-equal, except that any NaN matches any NaN.
inline bool SameTanh(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return FloatBits(got) == FloatBits(want);
}

}  // namespace explainti::tensor::testing

#endif  // EXPLAINTI_TESTS_TANH_REFERENCE_H_
