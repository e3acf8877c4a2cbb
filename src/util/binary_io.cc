#include "util/binary_io.h"

#include <cstdio>
#include <fstream>

#include "util/crc32.h"
#include "util/fault_injection.h"

namespace explainti::util {

namespace {

constexpr size_t kMagicBytes = 8;

}  // namespace

Status WriteFramedFile(const std::string& path, const std::string& image) {
  const uint32_t crc = Crc32(image);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open " + tmp);
    const size_t half = image.size() / 2;
    out.write(image.data(), static_cast<std::streamsize>(half));
    Status fault = FAULT_POINT("file.write");
    if (fault.ok()) {
      out.write(image.data() + half,
                static_cast<std::streamsize>(image.size() - half));
      out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    }
    out.flush();
    if (!fault.ok() || !out) {
      out.close();
      std::remove(tmp.c_str());
      return fault.ok() ? Status::IoError("write failed for " + tmp) : fault;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

StatusOr<FramedFile> ReadFramedFile(const std::string& path,
                                    const char* magic, const char* what) {
  auto file_or = MappedFile::Open(path);
  if (!file_or.ok()) return file_or.status();
  std::shared_ptr<MappedFile> file = std::move(file_or).value();
  const char* data = file->data();
  const size_t size = file->size();
  if (size < kMagicBytes + sizeof(uint32_t) ||
      std::memcmp(data, magic, kMagicBytes) != 0) {
    return Status::InvalidArgument(std::string("not a ") + what +
                                   " file: " + path);
  }
  const size_t body_bytes = size - kMagicBytes - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data + size - sizeof(uint32_t), sizeof(uint32_t));
  if (stored_crc != Crc32(data, size - sizeof(uint32_t))) {
    return Status::InvalidArgument(
        std::string(what) + " CRC mismatch (corrupted or truncated): " +
        path);
  }
  return FramedFile{std::move(file),
                    BinaryReader(data + kMagicBytes, body_bytes)};
}

}  // namespace explainti::util
