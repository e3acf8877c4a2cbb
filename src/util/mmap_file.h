#ifndef EXPLAINTI_UTIL_MMAP_FILE_H_
#define EXPLAINTI_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "util/status.h"

namespace explainti::util {

/// A read-only, mmap(2)-backed file image.
///
/// Embedding-store segments are loaded through this so a restarted process
/// reopens a multi-gigabyte store without copying it through the heap: the
/// kernel pages vectors in on first touch and can evict them under memory
/// pressure. A file that cannot be mapped is an error, not a slower path:
/// the store load fails and its caller re-encodes in memory. The mapping
/// base is page-aligned, so any field a file format places at an
/// 8-byte-aligned offset may be read through a typed pointer directly.
class MappedFile {
 public:
  /// Maps `path` read-only. NotFound when the file does not exist,
  /// IoError when it cannot be opened, is not a regular file, or cannot
  /// be mapped. An empty file yields size() == 0 with data() == nullptr.
  static StatusOr<std::shared_ptr<MappedFile>> Open(const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;

  const char* data_ = nullptr;  // The mapping; munmap target when non-null.
  size_t size_ = 0;
};

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_MMAP_FILE_H_
