#ifndef EXPLAINTI_CORE_STORE_PERSISTENCE_H_
#define EXPLAINTI_CORE_STORE_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/embedding_store.h"
#include "util/status.h"

namespace explainti::core {

// On-disk format of a persisted embedding store (see DESIGN.md "Sharded
// embedding store"). A store directory holds one file per non-empty
// segment plus `manifest.xtm`, every file written and read through the
// CRC32-framed, tmp+rename path of util/binary_io that checkpoints and
// weights share; the manifest is written last so a crash mid-save can
// never publish a manifest that names missing segment files.
//
// Segment file ("XTISEG01"): a 64-byte header (version, flags, range
// index, count, dim, content hash) followed by ids[count] (int64), the
// raw rows (float, count x dim), the L2-normalised rows (float, count x
// dim) and, when the hnsw_ready flag is set, the serialised HNSW graph.
// Payload arrays start at 8-byte-aligned offsets, so a loaded (mmap'd)
// segment serves searches directly out of the page cache — the arrays
// are read through typed pointers into the mapping, never copied.
//
// Manifest file ("XTIMAN01"): store geometry (dim, span, total count),
// the HnswOptions the segments were built with (per-segment seeds derive
// from the base seed via ann::SeedForSegment), and one (index, count,
// content_hash) record per segment, each cross-checked against the
// segment file's own header at load time.

/// The manifest record: everything needed to reopen a store directory.
struct StoreManifest {
  int64_t dim = 0;
  int64_t span = 0;
  int64_t count = 0;
  ann::HnswOptions hnsw;
  struct Entry {
    int64_t index = 0;
    int64_t count = 0;
    uint64_t content_hash = 0;
  };
  std::vector<Entry> entries;
};

/// mkdir -p: creates `path` and any missing parents (0755).
util::Status EnsureDirectory(const std::string& path);

/// Canonical file name of segment `index` within a store directory.
std::string SegmentFileName(int64_t index);

/// Writes one segment file (atomic tmp+rename; fault site "file.write").
util::Status SaveSegmentFile(const std::string& path,
                             const EmbeddingStore::Segment& segment);

/// Maps one segment file, verifies its CRC and header against the
/// manifest (`entry` names the expected index, count and content hash),
/// validates ids are strictly ascending within the segment's id-range,
/// and rebinds the index tiers onto the mapped payload. InvalidArgument
/// on any corruption or mismatch; the MappedFile::Open status when the
/// file cannot be mapped.
util::StatusOr<std::shared_ptr<const EmbeddingStore::Segment>>
LoadSegmentFile(const std::string& path, const StoreManifest& manifest,
                const StoreManifest::Entry& entry);

/// Writes the manifest (atomic tmp+rename; fault site "file.write").
util::Status SaveManifest(const std::string& path,
                          const StoreManifest& manifest);

/// Loads and validates a manifest. NotFound when absent, InvalidArgument
/// on CRC mismatch or malformed contents.
util::StatusOr<StoreManifest> LoadManifest(const std::string& path);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_STORE_PERSISTENCE_H_
