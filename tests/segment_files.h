#ifndef EXPLAINTI_TESTS_SEGMENT_FILES_H_
#define EXPLAINTI_TESTS_SEGMENT_FILES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "util/crc32.h"

namespace explainti::testing {

/// Rewrites the segment file at `path` (as EmbeddingStore::Save wrote it)
/// into a flat-only segment file: clears the HNSW-ready header flag, drops
/// the graph bytes and recomputes the CRC32 footer. This is the one input
/// that makes a store segment serve from its exact flat tier —
/// EmbeddingStore::Load accepts the file and gives that segment no graph.
/// Returns false when the file cannot be read, parsed or rewritten.
inline bool MakeSegmentFlatOnly(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Header (see core/store_persistence.h): magic[8], version u32,
  // flags u32, index i64, count i64, dim i64, content hash u64, padding
  // to 64 bytes; then ids, raw rows and normalised rows.
  constexpr size_t kHeaderBytes = 64;
  if (bytes.size() < kHeaderBytes + sizeof(uint32_t)) return false;
  int64_t count = 0;
  int64_t dim = 0;
  std::memcpy(&count, bytes.data() + 24, sizeof(count));
  std::memcpy(&dim, bytes.data() + 32, sizeof(dim));
  const size_t graph_offset =
      kHeaderBytes + static_cast<size_t>(count) * sizeof(int64_t) +
      2 * static_cast<size_t>(count * dim) * sizeof(float);
  if (count <= 0 || dim <= 0 ||
      graph_offset + sizeof(uint32_t) > bytes.size()) {
    return false;
  }
  const uint32_t flags = 0;
  std::memcpy(bytes.data() + 12, &flags, sizeof(flags));
  bytes.resize(graph_offset);
  const uint32_t crc = util::Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_SEGMENT_FILES_H_
