#ifndef EXPLAINTI_UTIL_BINARY_IO_H_
#define EXPLAINTI_UTIL_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace explainti::util {

// The one file path of the library's binary formats (checkpoints and
// weights, embedding-store segments and manifests). Every file is framed
// the same way:
//
//   magic                              8 bytes
//   body                               format-specific
//   crc32 over every preceding byte    u32  <- integrity footer
//
// Writers serialise magic + body into a std::string with the Append
// helpers and publish it with WriteFramedFile; loaders open it with
// ReadFramedFile and walk the verified body with BinaryReader. All
// multi-byte fields are host-endian — the formats are snapshot/cache
// artifacts, not interchange formats.

/// Appends the raw bytes of a trivially copyable value.
template <typename T>
void AppendPod(std::string* buffer, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  buffer->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Appends a float array without a length prefix (callers record counts in
/// their own headers).
inline void AppendFloats(std::string* buffer, const std::vector<float>& values) {
  buffer->append(reinterpret_cast<const char*>(values.data()),
                 values.size() * sizeof(float));
}

/// Bounds-checked cursor over a loaded (or mmap'd) file image; every read
/// returns false on overrun so a truncated file can never walk off the
/// buffer. Reads memcpy out of the image, so the image itself needs no
/// alignment.
class BinaryReader {
 public:
  BinaryReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadFloats(std::vector<float>* out, int64_t count) {
    if (count < 0 ||
        pos_ + static_cast<size_t>(count) * sizeof(float) > size_) {
      return false;
    }
    out->resize(static_cast<size_t>(count));
    std::memcpy(out->data(), data_ + pos_,
                static_cast<size_t>(count) * sizeof(float));
    pos_ += static_cast<size_t>(count) * sizeof(float);
    return true;
  }

  /// Advances the cursor without reading; false on overrun.
  bool Skip(size_t n) {
    if (pos_ + n > size_) return false;
    pos_ += n;
    return true;
  }

  /// Current byte offset into the image.
  size_t pos() const { return pos_; }

  /// Bytes left after the cursor.
  size_t remaining() const { return size_ - pos_; }

  /// Pointer to the byte at the cursor (valid for `remaining()` bytes).
  const char* cursor() const { return data_ + pos_; }

  bool AtEnd() const { return pos_ == size_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Appends the CRC32 footer to `image` (magic + body) and publishes it at
/// `path` atomically: the bytes go to `path + ".tmp"`, which is renamed
/// over `path` only once complete. A failed write — or the "file.write"
/// fault, which fires halfway through — removes the tmp file, so `path`
/// is never torn.
Status WriteFramedFile(const std::string& path, const std::string& image);

/// A framed file whose magic and CRC footer have been verified.
struct FramedFile {
  std::shared_ptr<MappedFile> mapping;  ///< Keeps `body`'s bytes alive.
  BinaryReader body;  ///< Cursor over the bytes between magic and footer.
};

/// Maps `path` and verifies its 8-byte `magic` and CRC32 footer. The
/// MappedFile::Open status when the file cannot be mapped (NotFound when
/// absent); InvalidArgument naming `what` when the magic is wrong or the
/// CRC does not match (corruption, truncation, trailing bytes).
StatusOr<FramedFile> ReadFramedFile(const std::string& path,
                                    const char* magic, const char* what);

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_BINARY_IO_H_
