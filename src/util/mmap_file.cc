#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace explainti::util {

util::StatusOr<std::shared_ptr<MappedFile>> MappedFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " +
                           std::strerror(err));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError(path + " is not a regular file");
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ == 0) {
    ::close(fd);
    return file;
  }
  void* base = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // A live mapping keeps the inode alive.
  if (base == MAP_FAILED) {
    return Status::IoError("cannot map " + path + ": " + std::strerror(err));
  }
  file->data_ = static_cast<const char*>(base);
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
}

}  // namespace explainti::util
