#ifndef EXPLAINTI_UTIL_CRC32_H_
#define EXPLAINTI_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace explainti::util {

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `data[0..n)`. Used as the
/// integrity footer of every framed file (util/binary_io.h); matches
/// zlib's crc32() so files can be verified externally.
uint32_t Crc32(const void* data, size_t n);

/// Incremental form: feed the previous return value back as `seed` to
/// extend a running checksum (start from 0).
uint32_t Crc32(uint32_t seed, const void* data, size_t n);

/// Convenience overload for strings.
uint32_t Crc32(const std::string& data);

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_CRC32_H_
