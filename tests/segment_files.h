#ifndef EXPLAINTI_TESTS_SEGMENT_FILES_H_
#define EXPLAINTI_TESTS_SEGMENT_FILES_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "util/binary_io.h"

namespace explainti::testing {

/// Rewrites the segment file at `path` (as EmbeddingStore::Save wrote it)
/// into a segment file without its HNSW graph: clears the graph header
/// flag and drops the graph bytes; WriteFramedFile recomputes the CRC32
/// footer, so only the missing graph makes the file unusable, and
/// EmbeddingStore::Load must reject it. Returns false when the file
/// cannot be read, parsed or rewritten.
inline bool MakeSegmentFlatOnly(const std::string& path) {
  std::string bytes;
  {
    auto framed = util::ReadFramedFile(path, "XTISEG01", "segment");
    if (!framed.ok()) return false;
    bytes.assign("XTISEG01");
    bytes.append(framed->body.cursor(), framed->body.remaining());
  }
  // Header (see core/store_persistence.h): magic[8], version u32,
  // flags u32, index i64, count i64, dim i64, content hash u64, padding
  // to 64 bytes; then ids, raw rows and normalised rows.
  constexpr size_t kHeaderBytes = 64;
  if (bytes.size() < kHeaderBytes) return false;
  int64_t count = 0;
  int64_t dim = 0;
  std::memcpy(&count, bytes.data() + 24, sizeof(count));
  std::memcpy(&dim, bytes.data() + 32, sizeof(dim));
  const size_t graph_offset =
      kHeaderBytes + static_cast<size_t>(count) * sizeof(int64_t) +
      2 * static_cast<size_t>(count * dim) * sizeof(float);
  if (count <= 0 || dim <= 0 || graph_offset > bytes.size()) return false;
  const uint32_t flags = 0;
  std::memcpy(bytes.data() + 12, &flags, sizeof(flags));
  bytes.resize(graph_offset);
  return util::WriteFramedFile(path, bytes).ok();
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_SEGMENT_FILES_H_
