#include "core/store_persistence.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/binary_io.h"
#include "util/logging.h"

namespace explainti::core {

namespace {

constexpr char kSegmentMagic[] = "XTISEG01";
constexpr char kManifestMagic[] = "XTIMAN01";
constexpr uint32_t kVersion = 1;
constexpr size_t kSegmentHeaderBytes = 64;
constexpr uint32_t kFlagHnswReady = 1u;

}  // namespace

util::Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return util::Status::InvalidArgument("empty directory");
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t next = path.find('/', pos);
    partial = next == std::string::npos ? path : path.substr(0, next);
    pos = next == std::string::npos ? path.size() + 1 : next + 1;
    if (partial.empty()) continue;  // Leading '/'.
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Status::IoError("cannot create directory " + partial +
                                   ": " + std::strerror(errno));
    }
  }
  return util::Status::OK();
}

std::string SegmentFileName(int64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg_%06lld.xts",
                static_cast<long long>(index));
  return name;
}

util::Status SaveSegmentFile(const std::string& path,
                             const EmbeddingStore::Segment& segment) {
  CHECK_GT(segment.count, 0);
  std::string buffer;
  buffer.append(kSegmentMagic, 8);
  util::AppendPod(&buffer, kVersion);
  util::AppendPod(&buffer, kFlagHnswReady);
  util::AppendPod(&buffer, segment.index);
  util::AppendPod(&buffer, segment.count);
  util::AppendPod(&buffer, segment.dim);
  util::AppendPod(&buffer, segment.content_hash);
  buffer.append(kSegmentHeaderBytes - buffer.size(), '\0');

  const size_t floats = static_cast<size_t>(segment.count * segment.dim);
  buffer.append(reinterpret_cast<const char*>(segment.ids),
                static_cast<size_t>(segment.count) * sizeof(int64_t));
  buffer.append(reinterpret_cast<const char*>(segment.raw),
                floats * sizeof(float));
  buffer.append(reinterpret_cast<const char*>(segment.norm),
                floats * sizeof(float));
  segment.hnsw.SerializeGraph(&buffer);
  return util::WriteFramedFile(path, buffer);
}

util::StatusOr<std::shared_ptr<const EmbeddingStore::Segment>>
LoadSegmentFile(const std::string& path, const StoreManifest& manifest,
                const StoreManifest::Entry& entry) {
  util::StatusOr<util::FramedFile> framed =
      util::ReadFramedFile(path, kSegmentMagic, "segment");
  if (!framed.ok()) return framed.status();
  util::BinaryReader& reader = framed->body;
  const auto malformed = [&path](const std::string& what) {
    return util::Status::InvalidArgument("malformed segment file " + path +
                                         ": " + what);
  };

  uint32_t version = 0;
  uint32_t flags = 0;
  int64_t index = 0;
  int64_t count = 0;
  int64_t dim = 0;
  uint64_t content_hash = 0;
  if (!reader.Read(&version) || !reader.Read(&flags) ||
      !reader.Read(&index) || !reader.Read(&count) || !reader.Read(&dim) ||
      !reader.Read(&content_hash) ||
      !reader.Skip(kSegmentHeaderBytes - 8 - reader.pos())) {
    return malformed("truncated header");
  }
  if (version != kVersion) return malformed("unsupported version");
  if (index != entry.index || count != entry.count ||
      content_hash != entry.content_hash) {
    return malformed("header disagrees with the manifest entry");
  }
  if (dim != manifest.dim) return malformed("dimension mismatch");
  if (count <= 0 || dim <= 0) return malformed("empty segment");

  // Payload bounds, checked by division so a forged count or dim cannot
  // wrap the byte arithmetic. The header is 64 bytes and the mapping base
  // is page-aligned, so ids start 8-byte aligned and may be read through
  // typed pointers straight into the mapping.
  const size_t width = static_cast<size_t>(dim);
  const size_t id_bytes = static_cast<size_t>(count) * sizeof(int64_t);
  const size_t row_bytes = static_cast<size_t>(count) * width * sizeof(float);
  const char* payload = reader.cursor();
  const size_t left = reader.remaining();
  if (width > left ||
      static_cast<size_t>(count) >
          left / (sizeof(int64_t) + 2 * sizeof(float) * width) ||
      !reader.Skip(id_bytes + 2 * row_bytes)) {
    return malformed("payload overruns the file");
  }

  auto segment = std::make_shared<EmbeddingStore::Segment>();
  segment->index = index;
  segment->count = count;
  segment->dim = dim;
  segment->content_hash = content_hash;
  segment->mapping = framed->mapping;
  segment->ids = reinterpret_cast<const int64_t*>(payload);
  segment->raw = reinterpret_cast<const float*>(payload + id_bytes);
  segment->norm =
      reinterpret_cast<const float*>(payload + id_bytes + row_bytes);

  // Ids must be strictly ascending and confined to this segment's
  // id-range: together with the manifest that guarantees global
  // uniqueness without a cross-segment pass.
  const int64_t range_begin = index * manifest.span;
  const int64_t range_end = range_begin + manifest.span;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t id = segment->ids[i];
    if (id < range_begin || id >= range_end ||
        (i > 0 && id <= segment->ids[i - 1])) {
      return malformed("ids out of order or outside the segment range");
    }
  }

  // A segment without its graph cannot serve a search, so it is as
  // unusable as a corrupt one; ExplainTiModel::RestoreStores re-encodes.
  if ((flags & kFlagHnswReady) == 0) {
    return malformed("segment has no HNSW graph");
  }
  ann::HnswOptions options = manifest.hnsw;
  options.seed = ann::SeedForSegment(manifest.hnsw.seed, index);
  segment->hnsw = ann::HnswIndex(options);
  segment->hnsw.AttachStorage(segment->ids, segment->norm, count, dim);
  if (util::Status s = segment->hnsw.LoadGraph(&reader); !s.ok()) return s;
  if (!reader.AtEnd()) return malformed("trailing bytes after the graph");
  return std::shared_ptr<const EmbeddingStore::Segment>(std::move(segment));
}

util::Status SaveManifest(const std::string& path,
                          const StoreManifest& manifest) {
  std::string buffer;
  buffer.append(kManifestMagic, 8);
  util::AppendPod(&buffer, kVersion);
  util::AppendPod(&buffer, uint32_t{0});  // Reserved.
  util::AppendPod(&buffer, manifest.dim);
  util::AppendPod(&buffer, manifest.span);
  util::AppendPod(&buffer, manifest.count);
  util::AppendPod(&buffer, static_cast<int64_t>(manifest.entries.size()));
  util::AppendPod(&buffer, manifest.hnsw.seed);
  util::AppendPod(&buffer, static_cast<int32_t>(manifest.hnsw.M));
  util::AppendPod(&buffer,
                  static_cast<int32_t>(manifest.hnsw.ef_construction));
  util::AppendPod(&buffer, static_cast<int32_t>(manifest.hnsw.ef_search));
  util::AppendPod(&buffer, int32_t{0});  // Reserved.
  for (const StoreManifest::Entry& entry : manifest.entries) {
    util::AppendPod(&buffer, entry.index);
    util::AppendPod(&buffer, entry.count);
    util::AppendPod(&buffer, entry.content_hash);
  }
  return util::WriteFramedFile(path, buffer);
}

util::StatusOr<StoreManifest> LoadManifest(const std::string& path) {
  util::StatusOr<util::FramedFile> framed =
      util::ReadFramedFile(path, kManifestMagic, "manifest");
  if (!framed.ok()) return framed.status();
  util::BinaryReader& reader = framed->body;
  const auto malformed = [&path](const std::string& what) {
    return util::Status::InvalidArgument("malformed manifest " + path +
                                         ": " + what);
  };
  uint32_t version = 0;
  uint32_t reserved32 = 0;
  StoreManifest manifest;
  int64_t num_entries = 0;
  int32_t m = 0;
  int32_t ef_construction = 0;
  int32_t ef_search = 0;
  int32_t reserved = 0;
  if (!reader.Read(&version) || !reader.Read(&reserved32) ||
      !reader.Read(&manifest.dim) || !reader.Read(&manifest.span) ||
      !reader.Read(&manifest.count) || !reader.Read(&num_entries) ||
      !reader.Read(&manifest.hnsw.seed) || !reader.Read(&m) ||
      !reader.Read(&ef_construction) || !reader.Read(&ef_search) ||
      !reader.Read(&reserved)) {
    return malformed("truncated header");
  }
  if (version != kVersion) return malformed("unsupported version");
  if (manifest.dim <= 0 || manifest.span <= 0 || manifest.count <= 0 ||
      num_entries <= 0 || m < 2 || ef_construction < m || ef_search < 1) {
    return malformed("implausible geometry or HNSW options");
  }
  manifest.hnsw.M = m;
  manifest.hnsw.ef_construction = ef_construction;
  manifest.hnsw.ef_search = ef_search;
  // Every bound below is checked by division or against what is already
  // bounded, so a forged but CRC-valid manifest cannot size a table or
  // wrap an int64. A range's ids [index * span, (index + 1) * span) must
  // fit in int64; with ascending indexes and count <= span that also
  // bounds the running count total by (index + 1) * span.
  constexpr size_t kEntryBytes = 2 * sizeof(int64_t) + sizeof(uint64_t);
  if (static_cast<uint64_t>(num_entries) > reader.remaining() / kEntryBytes) {
    return malformed("entry table overruns the file");
  }
  manifest.entries.resize(static_cast<size_t>(num_entries));
  int64_t total = 0;
  int64_t previous_index = -1;
  for (StoreManifest::Entry& entry : manifest.entries) {
    if (!reader.Read(&entry.index) || !reader.Read(&entry.count) ||
        !reader.Read(&entry.content_hash)) {
      return malformed("truncated entry table");
    }
    if (entry.index <= previous_index || entry.count <= 0 ||
        entry.count > manifest.span ||
        entry.index > std::numeric_limits<int64_t>::max() / manifest.span - 1) {
      return malformed("entry table out of order or out of range");
    }
    previous_index = entry.index;
    total += entry.count;
  }
  if (total != manifest.count) {
    return malformed("entry counts do not sum to the store count");
  }
  if (!reader.AtEnd()) return malformed("trailing bytes");
  return manifest;
}

}  // namespace explainti::core
