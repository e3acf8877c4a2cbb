#ifndef EXPLAINTI_CORE_EMBEDDING_STORE_H_
#define EXPLAINTI_CORE_EMBEDDING_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/index.h"
#include "ann/sharded_search.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace explainti::core {

/// The embedding store Q of Algorithm 2: the [CLS] embedding of every
/// training sample, plus ANN indexes over them for top-K retrieval.
///
/// Segmented architecture: a published Snapshot is a set of immutable
/// Segments — contiguous id-ranges, each carrying the raw embeddings, an
/// L2-normalised copy shared by both index tiers, an exact FlatIndex and
/// an HNSW graph (absent only in a segment loaded from a flat-only file).
/// Search() fans the query over the segments through
/// ann::ShardedSearchInto and merges with a bounded heap under a total
/// order, so results are bit-identical at any shard count and thread
/// count.
///
/// Rebuilds: Rebuild() builds every segment of a new snapshot aside, in
/// parallel, then publishes it atomically. Readers pin one generation
/// through a View and keep answering from it while the next rebuild runs.
///
/// Degradation ladder, per segment: HNSW is the fast tier. Rebuild()
/// always completes every segment's graph, so the one way a segment can
/// lack one is Load() of a segment file whose header says it was saved
/// without its graph (flag bit clear). That segment — and only that
/// segment — answers from its exact FlatIndex. `used_fallback` reports a
/// query where any segment degraded.
///
/// Persistence: Save() writes one CRC32-footed file per segment plus a
/// manifest (see store_persistence.h); Load() maps them and publishes the
/// result as a normal snapshot, so a
/// restarted process serves bit-identical results without re-encoding the
/// corpus.
class EmbeddingStore {
 public:
  struct Options {
    ann::HnswOptions hnsw;
    /// Id-range segments per snapshot (>= 1). Segment i owns ids in
    /// [i*span, (i+1)*span) where span = ceil((max_id+1)/num_segments);
    /// per-segment HNSW seeds derive from hnsw.seed via
    /// ann::SeedForSegment.
    int num_segments = 1;
  };

  /// A borrowed, read-only embedding row. Valid while the View (or
  /// Snapshot) it came from is alive; the bytes may live in an mmap'd
  /// segment file, so there is no std::vector to hand out.
  class EmbeddingRef {
   public:
    EmbeddingRef(const float* data, int64_t dim) : data_(data), dim_(dim) {}
    const float* data() const { return data_; }
    int64_t size() const { return dim_; }
    float operator[](int64_t i) const { return data_[i]; }
    const float* begin() const { return data_; }
    const float* end() const { return data_ + dim_; }
    std::vector<float> ToVector() const {
      return std::vector<float>(data_, data_ + dim_);
    }

   private:
    const float* data_;
    int64_t dim_;
  };

  /// One immutable id-range of a snapshot, built or loaded once. Rows are
  /// sorted by ascending id — the canonical layout that makes
  /// content_hash and the HNSW insertion order reproducible.
  struct Segment {
    int64_t index = 0;  ///< Range ordinal: ids in [index*span, ...).
    int64_t count = 0;
    int64_t dim = 0;
    /// FNV-1a over (dim, count, ids, raw rows) in canonical order. Saved
    /// in both the manifest and the segment file, which Load()
    /// cross-checks.
    uint64_t content_hash = 0;
    bool hnsw_ready = false;

    // Payload. Either owned (fresh build) or borrowed from `mapping`
    // (loaded from disk); `ids`/`raw`/`norm` point at whichever is live.
    std::vector<int64_t> owned_ids;
    std::vector<float> owned_raw;
    std::vector<float> owned_norm;
    std::shared_ptr<util::MappedFile> mapping;
    const int64_t* ids = nullptr;
    const float* raw = nullptr;   ///< count x dim, caller's values.
    const float* norm = nullptr;  ///< count x dim, L2-normalised.

    ann::FlatIndex flat;
    std::unique_ptr<ann::HnswIndex> hnsw;  ///< Null when loaded flat-only.

    /// Row index of `id` (binary search over the sorted ids), -1 if absent.
    int64_t RowOf(int64_t id) const;
  };

  /// One immutable published store generation. Built privately by
  /// Rebuild()/Load(); reachable only through a View.
  struct Snapshot {
    int64_t dim = 0;
    int64_t count = 0;
    int64_t span = 0;     ///< Ids per segment range.
    int64_t max_id = -1;
    uint64_t generation = 0;  ///< 1 for the first Rebuild, then +1 each.
    /// Options the segments were built with (Rebuild: the store's own;
    /// Load: the saved manifest's). Save() records these so a reloaded
    /// store searches with the same ef and derives the same seeds.
    ann::HnswOptions hnsw;
    /// Dense by range index; null entries are ranges with no ids.
    std::vector<std::shared_ptr<const Segment>> segments;
    /// The non-empty segments, in range order: what the fan-out searches.
    std::vector<ann::ShardRef> shards;
    std::vector<const Segment*> shard_segments;  ///< Parallel to shards.
  };

  /// A read handle pinning one snapshot. Cheap to copy (shared_ptr);
  /// valid — and immutable — for its whole lifetime regardless of
  /// concurrent Rebuild() calls. Take one View per forward pass.
  class View {
   public:
    explicit View(std::shared_ptr<const Snapshot> snapshot)
        : snapshot_(std::move(snapshot)) {}

    /// Top-k most-similar stored samples, optionally excluding one id
    /// (the query sample itself during training). Sets `*used_fallback`
    /// (when non-null) to whether any segment answered from its flat
    /// tier instead of HNSW.
    std::vector<ann::SearchResult> Search(const std::vector<float>& query,
                                          int k, int exclude_id = -1,
                                          bool* used_fallback = nullptr) const;

    /// Allocation-reusing form of Search(): clears and fills `*out`,
    /// keeping its capacity. With a warm `out` (and warm thread-local
    /// fan-out scratch) a serial search performs zero heap allocations —
    /// the property the store bench gates.
    void SearchInto(const std::vector<float>& query, int k, int exclude_id,
                    std::vector<ann::SearchResult>* out,
                    bool* used_fallback = nullptr) const;

    /// The stored embedding for `id`; the reference lives as long as this
    /// View. Aborts when absent.
    EmbeddingRef Embedding(int id) const;

    /// True when `id` has a stored embedding.
    bool Contains(int id) const;

    /// Stored embeddings (flat tier; independent of HNSW health).
    int64_t size() const { return snapshot_ == nullptr ? 0 : snapshot_->count; }

    /// Embedding dimensionality (0 when empty).
    int64_t dim() const { return snapshot_ == nullptr ? 0 : snapshot_->dim; }

    /// False when any segment was loaded flat-only and serves flat.
    /// Vacuously true for an empty store.
    bool hnsw_ready() const;

    /// Non-empty segments in this snapshot.
    int num_segments() const {
      return snapshot_ == nullptr
                 ? 0
                 : static_cast<int>(snapshot_->shards.size());
    }

    /// Whether non-empty segment `shard` (in range order) serves HNSW.
    bool segment_hnsw_ready(int shard) const;

    /// Largest stored id (-1 when empty).
    int64_t max_id() const {
      return snapshot_ == nullptr ? -1 : snapshot_->max_id;
    }

    /// Which Rebuild() produced this snapshot (0 = never rebuilt).
    uint64_t generation() const {
      return snapshot_ == nullptr ? 0 : snapshot_->generation;
    }

   private:
    std::shared_ptr<const Snapshot> snapshot_;  // Null before any Rebuild.
  };

  explicit EmbeddingStore(Options options);

  /// Replaces the store contents: builds a fresh snapshot aside and
  /// publishes it atomically (readers holding Views keep their old
  /// snapshot). `embeddings[i]` is stored under `ids[i]`; all vectors
  /// must share one dimensionality. Every non-empty id-range builds a
  /// fresh segment with both tiers, in parallel over the thread pool, so
  /// a Rebuild also restores the graph of any segment loaded flat-only.
  void Rebuild(const std::vector<int>& ids,
               const std::vector<std::vector<float>>& embeddings);

  /// Persists the current snapshot: one segment file per non-empty range
  /// plus `manifest.xtm`, all CRC32-footed and written via tmp+rename
  /// (the manifest last, so a crash mid-save can never publish a
  /// manifest naming missing segments). Fails on an empty store.
  util::Status Save(const std::string& dir) const;

  /// Loads a Save()d store and publishes it as the current snapshot
  /// (generation advances as if rebuilt). Segments map via mmap; every
  /// file's CRC is verified before use, and any failure returns a typed
  /// error (InvalidArgument for CRC/format, NotFound for missing files,
  /// IoError for files that cannot be mapped) with the store left on its
  /// previous snapshot. Search results over a loaded store are bit-identical to
  /// the store that saved it.
  util::Status Load(const std::string& dir);

  /// Pins the current snapshot. Thread-safe against concurrent Rebuild.
  View view() const;

  // Convenience pass-throughs operating on the instantaneous current
  // snapshot. Multi-read consistency across a rebuild is NOT guaranteed
  // here — readers that must see one generation take view() once instead.
  // (There is deliberately no Embedding() pass-through: a borrowed row
  // must be pinned by a View for its whole lifetime.)
  std::vector<ann::SearchResult> Search(const std::vector<float>& query,
                                        int k, int exclude_id = -1,
                                        bool* used_fallback = nullptr) const {
    return view().Search(query, k, exclude_id, used_fallback);
  }
  bool Contains(int id) const { return view().Contains(id); }
  int64_t size() const { return view().size(); }
  bool hnsw_ready() const { return view().hnsw_ready(); }

  const Options& options() const { return options_; }

 private:
  /// Builds one segment — content hash, flat tier and complete HNSW
  /// graph — from rows (sorted by id) of the rebuild input.
  std::shared_ptr<const Segment> BuildSegment(
      int64_t segment_index, const std::vector<int64_t>& seg_ids,
      const std::vector<const std::vector<float>*>& seg_rows,
      int64_t dim) const;

  /// Publishes `snapshot` as the current generation.
  void Publish(std::shared_ptr<Snapshot> snapshot);

  Options options_;
  uint64_t next_generation_ = 1;  // Guarded by mu_ (publish-side only).
  mutable std::mutex mu_;  // Guards publication of current_.
  std::shared_ptr<const Snapshot> current_;  // Null before first Rebuild.
};

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_EMBEDDING_STORE_H_
