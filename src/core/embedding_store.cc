#include "core/embedding_store.h"

#include <algorithm>

#include "core/store_persistence.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace explainti::core {

namespace {

/// Builds the Snapshot's fan-out tables from its segments vector.
void IndexShards(EmbeddingStore::Snapshot* snapshot) {
  snapshot->shards.clear();
  for (const auto& segment : snapshot->segments) {
    if (segment != nullptr) snapshot->shards.push_back(&segment->hnsw);
  }
}

}  // namespace

int64_t EmbeddingStore::Segment::RowOf(int64_t id) const {
  const int64_t* end = ids + count;
  const int64_t* it = std::lower_bound(ids, end, id);
  return (it != end && *it == id) ? it - ids : -1;
}

EmbeddingStore::EmbeddingStore(Options options) : options_(std::move(options)) {
  CHECK_GE(options_.num_segments, 1);
}

std::shared_ptr<const EmbeddingStore::Segment> EmbeddingStore::BuildSegment(
    int64_t segment_index, const std::vector<int64_t>& seg_ids,
    const std::vector<const std::vector<float>*>& seg_rows,
    int64_t dim) const {
  auto segment = std::make_shared<Segment>();
  segment->index = segment_index;
  segment->count = static_cast<int64_t>(seg_ids.size());
  segment->dim = dim;
  uint64_t h = util::HashBytes(&dim, sizeof(dim));
  h = util::HashBytes(&segment->count, sizeof(segment->count), h);
  h = util::HashBytes(seg_ids.data(), seg_ids.size() * sizeof(int64_t), h);
  for (const std::vector<float>* row : seg_rows) {
    h = util::HashBytes(row->data(), row->size() * sizeof(float), h);
  }
  segment->content_hash = h;
  segment->owned_ids = seg_ids;
  segment->owned_raw.resize(seg_ids.size() * static_cast<size_t>(dim));
  segment->owned_norm.resize(segment->owned_raw.size());
  for (size_t row = 0; row < seg_rows.size(); ++row) {
    const std::vector<float>& src = *seg_rows[row];
    float* raw = segment->owned_raw.data() + row * static_cast<size_t>(dim);
    std::copy(src.begin(), src.end(), raw);
    ann::L2NormalizeInto(
        raw, dim, segment->owned_norm.data() + row * static_cast<size_t>(dim));
  }
  segment->ids = segment->owned_ids.data();
  segment->raw = segment->owned_raw.data();
  segment->norm = segment->owned_norm.data();

  ann::HnswOptions hnsw_options = options_.hnsw;
  hnsw_options.seed = ann::SeedForSegment(options_.hnsw.seed, segment_index);
  segment->hnsw = ann::HnswIndex(hnsw_options);
  segment->hnsw.AttachStorage(segment->ids, segment->norm, segment->count,
                              dim);
  for (int64_t row = 0; row < segment->count; ++row) {
    segment->hnsw.InsertNode();
  }
  return segment;
}

void EmbeddingStore::Rebuild(
    const std::vector<int>& ids,
    const std::vector<std::vector<float>>& embeddings) {
  CHECK_EQ(ids.size(), embeddings.size());
  // Build the whole snapshot off to the side: readers keep serving the
  // previous generation until the single publication below.
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->hnsw = options_.hnsw;
  if (ids.empty()) {
    Publish(std::move(snapshot));
    return;
  }

  const int64_t dim = static_cast<int64_t>(embeddings[0].size());
  int64_t max_id = -1;
  for (size_t i = 0; i < ids.size(); ++i) {
    CHECK_GE(ids[i], 0);
    CHECK_EQ(static_cast<int64_t>(embeddings[i].size()), dim)
        << "EmbeddingStore dimension mismatch at id " << ids[i];
    max_id = std::max(max_id, static_cast<int64_t>(ids[i]));
  }
  const int64_t num_segments = options_.num_segments;
  const int64_t span = (max_id + num_segments) / num_segments;  // ceil.
  const int64_t num_ranges = max_id / span + 1;
  snapshot->dim = dim;
  snapshot->count = static_cast<int64_t>(ids.size());
  snapshot->span = span;
  snapshot->max_id = max_id;
  snapshot->segments.resize(static_cast<size_t>(num_ranges));

  // Bucket rows into id-ranges and canonicalise each range: sorted by
  // ascending id, which fixes both the content hash and the HNSW
  // insertion order.
  std::vector<std::vector<int64_t>> range_ids(
      static_cast<size_t>(num_ranges));
  std::vector<std::vector<const std::vector<float>*>> range_rows(
      static_cast<size_t>(num_ranges));
  {
    std::vector<std::vector<size_t>> order(static_cast<size_t>(num_ranges));
    for (size_t i = 0; i < ids.size(); ++i) {
      order[static_cast<size_t>(ids[i] / span)].push_back(i);
    }
    for (int64_t r = 0; r < num_ranges; ++r) {
      auto& rows = order[static_cast<size_t>(r)];
      std::sort(rows.begin(), rows.end(), [&ids](size_t a, size_t b) {
        return ids[a] < ids[b];
      });
      range_ids[static_cast<size_t>(r)].reserve(rows.size());
      range_rows[static_cast<size_t>(r)].reserve(rows.size());
      for (size_t i : rows) {
        auto& rids = range_ids[static_cast<size_t>(r)];
        CHECK(rids.empty() || rids.back() != ids[i])
            << "duplicate store id " << ids[i];
        rids.push_back(ids[i]);
        range_rows[static_cast<size_t>(r)].push_back(&embeddings[i]);
      }
    }
  }

  // Independent segments build in parallel.
  util::ParallelFor(0, num_ranges, [&](int64_t b, int64_t e) {
    for (int64_t r = b; r < e; ++r) {
      const auto& rids = range_ids[static_cast<size_t>(r)];
      if (rids.empty()) continue;
      snapshot->segments[static_cast<size_t>(r)] = BuildSegment(
          r, rids, range_rows[static_cast<size_t>(r)], dim);
    }
  });

  IndexShards(snapshot.get());
  Publish(std::move(snapshot));
}

void EmbeddingStore::Publish(std::shared_ptr<Snapshot> snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot->generation = next_generation_++;
  current_ = std::move(snapshot);
}

util::Status EmbeddingStore::Save(const std::string& dir) const {
  std::shared_ptr<const Snapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = current_;
  }
  if (snapshot == nullptr || snapshot->count == 0) {
    return util::Status::FailedPrecondition(
        "cannot save an empty embedding store");
  }
  if (util::Status s = EnsureDirectory(dir); !s.ok()) return s;

  StoreManifest manifest;
  manifest.dim = snapshot->dim;
  manifest.span = snapshot->span;
  manifest.count = snapshot->count;
  manifest.hnsw = snapshot->hnsw;
  for (const auto& segment : snapshot->segments) {
    if (segment == nullptr) continue;
    if (util::Status s = SaveSegmentFile(
            dir + "/" + SegmentFileName(segment->index), *segment);
        !s.ok()) {
      return s;
    }
    manifest.entries.push_back(StoreManifest::Entry{
        segment->index, segment->count, segment->content_hash});
  }
  // The manifest goes last: until it lands, the directory is not a
  // loadable store, so a crash above can never publish a partial one.
  return SaveManifest(dir + "/manifest.xtm", manifest);
}

util::Status EmbeddingStore::Load(const std::string& dir) {
  auto manifest_or = LoadManifest(dir + "/manifest.xtm");
  if (!manifest_or.ok()) return manifest_or.status();
  const StoreManifest& manifest = *manifest_or;

  auto snapshot = std::make_shared<Snapshot>();
  snapshot->dim = manifest.dim;
  snapshot->span = manifest.span;
  snapshot->count = manifest.count;
  snapshot->hnsw = manifest.hnsw;
  // Every segment file loads and checks out before the range table is
  // sized: a manifest index alone never decides an allocation.
  std::vector<std::shared_ptr<const Segment>> loaded;
  loaded.reserve(manifest.entries.size());
  for (const StoreManifest::Entry& entry : manifest.entries) {
    auto segment_or = LoadSegmentFile(
        dir + "/" + SegmentFileName(entry.index), manifest, entry);
    if (!segment_or.ok()) return segment_or.status();
    loaded.push_back(std::move(segment_or.value()));
  }
  snapshot->segments.resize(
      static_cast<size_t>(manifest.entries.back().index + 1));
  for (std::shared_ptr<const Segment>& segment : loaded) {
    snapshot->max_id =
        std::max(snapshot->max_id, segment->ids[segment->count - 1]);
    snapshot->segments[static_cast<size_t>(segment->index)] =
        std::move(segment);
  }
  IndexShards(snapshot.get());
  Publish(std::move(snapshot));
  return util::Status::OK();
}

EmbeddingStore::View EmbeddingStore::view() const {
  std::lock_guard<std::mutex> lock(mu_);
  return View(current_);
}

std::vector<ann::SearchResult> EmbeddingStore::View::Search(
    const std::vector<float>& query, int k, int exclude_id) const {
  std::vector<ann::SearchResult> out;
  SearchInto(query, k, exclude_id, &out);
  return out;
}

void EmbeddingStore::View::SearchInto(
    const std::vector<float>& query, int k, int exclude_id,
    std::vector<ann::SearchResult>* out) const {
  out->clear();
  if (snapshot_ == nullptr || snapshot_->count == 0) {
    return;  // Nothing stored yet.
  }
  if (static_cast<int64_t>(query.size()) != snapshot_->dim) {
    // A malformed query degrades to "no neighbours", not an abort: GE
    // and SE read an empty result as "no retrieved samples".
    LOG(WARNING) << "EmbeddingStore: query dim " << query.size()
                 << " != store dim " << snapshot_->dim
                 << "; returning no results";
    return;
  }

  ann::ShardedSearchInto(snapshot_->shards.data(),
                         static_cast<int64_t>(snapshot_->shards.size()),
                         query, k, exclude_id, out);
}

EmbeddingStore::EmbeddingRef EmbeddingStore::View::Embedding(int id) const {
  CHECK(Contains(id)) << "no embedding stored for id " << id;
  const Segment& segment =
      *snapshot_->segments[static_cast<size_t>(id / snapshot_->span)];
  const int64_t row = segment.RowOf(id);
  return EmbeddingRef(segment.raw + row * segment.dim, segment.dim);
}

bool EmbeddingStore::View::Contains(int id) const {
  if (snapshot_ == nullptr || id < 0 || snapshot_->span <= 0 ||
      static_cast<int64_t>(id) > snapshot_->max_id) {
    return false;
  }
  const auto& segment =
      snapshot_->segments[static_cast<size_t>(id / snapshot_->span)];
  return segment != nullptr && segment->RowOf(id) >= 0;
}

}  // namespace explainti::core
