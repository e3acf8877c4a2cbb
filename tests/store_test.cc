// Sharded, snapshot-persistent embedding store: merge determinism,
// snapshot isolation across rebuilds, and the persisted-format round trip
// (mmap, and the in-memory rebuild when a segment cannot be mapped). The
// acceptance bar here is bit-identity: a saved
// store reloaded in a fresh object must answer every query with the same
// ids, the same similarity BITS, and the same fallback flags — at every
// shard count and thread count.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ann/sharded_search.h"
#include "core/embedding_store.h"
#include "core/store_persistence.h"
#include "session_fixtures.h"
#include "util/alloc_counter.h"
#include "util/binary_io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

using ann::SearchResult;

// ---------------------------------------------------------------------------
// MergeTopK: the bounded-heap merge under the (similarity desc, id asc)
// total order.
// ---------------------------------------------------------------------------

TEST(MergeTopKTest, OrdersBySimilarityThenId) {
  std::vector<std::vector<SearchResult>> shards(2);
  shards[0] = {{5, 0.9f}, {9, 0.5f}};
  shards[1] = {{2, 0.9f}, {1, 0.7f}};
  std::vector<SearchResult> out;
  ann::MergeTopK(shards.data(), 2, 4, /*exclude_id=*/-1, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].id, 2);  // Tie at 0.9 broken by ascending id.
  EXPECT_EQ(out[1].id, 5);
  EXPECT_EQ(out[2].id, 1);
  EXPECT_EQ(out[3].id, 9);
}

TEST(MergeTopKTest, DropsExcludedIdWithoutCostingAHit) {
  std::vector<std::vector<SearchResult>> shards(1);
  shards[0] = {{0, 1.0f}, {1, 0.9f}, {2, 0.8f}};
  std::vector<SearchResult> out;
  ann::MergeTopK(shards.data(), 1, 2, /*exclude_id=*/0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1);
  EXPECT_EQ(out[1].id, 2);
}

TEST(MergeTopKTest, BoundedToKAndIndependentOfShardOrder) {
  std::vector<SearchResult> a = {{10, 0.9f}, {11, 0.3f}, {12, 0.1f}};
  std::vector<SearchResult> b = {{20, 0.8f}, {21, 0.4f}};
  std::vector<SearchResult> c = {{30, 0.85f}, {31, 0.2f}};
  std::vector<std::vector<SearchResult>> fwd = {a, b, c};
  std::vector<std::vector<SearchResult>> rev = {c, b, a};
  std::vector<SearchResult> out_fwd, out_rev;
  ann::MergeTopK(fwd.data(), 3, 3, -1, &out_fwd);
  ann::MergeTopK(rev.data(), 3, 3, -1, &out_rev);
  ASSERT_EQ(out_fwd.size(), 3u);
  EXPECT_EQ(out_fwd[0].id, 10);
  EXPECT_EQ(out_fwd[1].id, 30);
  EXPECT_EQ(out_fwd[2].id, 20);
  ASSERT_EQ(out_rev.size(), out_fwd.size());
  for (size_t i = 0; i < out_fwd.size(); ++i) {
    EXPECT_EQ(out_fwd[i].id, out_rev[i].id);
    EXPECT_EQ(out_fwd[i].similarity, out_rev[i].similarity);
  }
}

TEST(MergeTopKTest, NonPositiveKReturnsNothing) {
  std::vector<std::vector<SearchResult>> shards(1);
  shards[0] = {{1, 0.5f}};
  std::vector<SearchResult> out = {{99, 0.1f}};
  ann::MergeTopK(shards.data(), 1, 0, -1, &out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Store fixture helpers.
// ---------------------------------------------------------------------------

std::vector<std::vector<float>> MakeRows(int n, int dim, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(static_cast<size_t>(n));
  for (auto& row : rows) {
    row.resize(static_cast<size_t>(dim));
    for (float& x : row) x = static_cast<float>(rng.Normal());
  }
  return rows;
}

std::vector<int> Iota(int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

EmbeddingStore::Options SegOptions(int num_segments) {
  EmbeddingStore::Options options;
  options.num_segments = num_segments;
  options.hnsw.M = 6;
  options.hnsw.ef_construction = 32;
  options.hnsw.ef_search = 24;
  return options;
}

/// One query's full observable outcome, with similarities captured as raw
/// bits so "close enough" can never pass for "identical".
struct GoldenHit {
  int64_t id;
  uint32_t sim_bits;
  bool operator==(const GoldenHit&) const = default;
};
struct GoldenQuery {
  std::vector<GoldenHit> hits;
  bool used_fallback = false;
  bool operator==(const GoldenQuery&) const = default;
};

std::vector<GoldenQuery> CaptureGolden(
    const EmbeddingStore::View& view,
    const std::vector<std::vector<float>>& queries, int k) {
  std::vector<GoldenQuery> golden;
  for (const auto& q : queries) {
    GoldenQuery g;
    const auto hits = view.Search(q, k, /*exclude_id=*/-1, &g.used_fallback);
    for (const SearchResult& hit : hits) {
      uint32_t bits = 0;
      static_assert(sizeof(bits) == sizeof(hit.similarity));
      std::memcpy(&bits, &hit.similarity, sizeof(bits));
      g.hits.push_back(GoldenHit{hit.id, bits});
    }
    golden.push_back(std::move(g));
  }
  return golden;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

class StoreTest : public ::testing::Test {
 protected:
  void TearDown() override { util::SetGlobalThreadCount(1); }
};

// ---------------------------------------------------------------------------
// Segmented search semantics.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, SegmentedStoreAgreesWithFlatTruthOnTopHit) {
  const int kDim = 8;
  const auto rows = MakeRows(60, kDim, 7);
  for (int segments : {1, 2, 8}) {
    EmbeddingStore store(SegOptions(segments));
    store.Rebuild(Iota(60), rows);
    EXPECT_TRUE(store.hnsw_ready());
    const EmbeddingStore::View view = store.view();
    EXPECT_EQ(view.num_segments(), segments);
    for (int q = 0; q < 60; q += 7) {
      const auto hits = view.Search(rows[static_cast<size_t>(q)], 3);
      ASSERT_FALSE(hits.empty()) << "segments=" << segments << " q=" << q;
      EXPECT_EQ(hits[0].id, q);  // A stored row's nearest is itself.
    }
  }
}

TEST_F(StoreTest, SearchIsBitIdenticalAcrossThreadCounts) {
  const auto rows = MakeRows(80, 8, 11);
  const auto queries = MakeRows(10, 8, 99);
  EmbeddingStore store(SegOptions(8));
  store.Rebuild(Iota(80), rows);
  const EmbeddingStore::View view = store.view();

  util::SetGlobalThreadCount(1);
  const auto serial = CaptureGolden(view, queries, 5);
  util::SetGlobalThreadCount(4);
  const auto parallel = CaptureGolden(view, queries, 5);
  EXPECT_EQ(serial, parallel);
}

TEST_F(StoreTest, SearchIntoMatchesSearchAndReusesCapacity) {
  const auto rows = MakeRows(40, 8, 3);
  EmbeddingStore store(SegOptions(4));
  store.Rebuild(Iota(40), rows);
  const EmbeddingStore::View view = store.view();
  std::vector<SearchResult> reused;
  for (int q = 0; q < 10; ++q) {
    const auto by_value = view.Search(rows[static_cast<size_t>(q)], 4, q);
    view.SearchInto(rows[static_cast<size_t>(q)], 4, q, &reused);
    ASSERT_EQ(by_value.size(), reused.size());
    for (size_t i = 0; i < by_value.size(); ++i) {
      EXPECT_EQ(by_value[i].id, reused[i].id);
      EXPECT_EQ(by_value[i].similarity, reused[i].similarity);
    }
  }
}

TEST_F(StoreTest, SteadyStateSerialSearchAllocatesNothing) {
  const auto rows = MakeRows(64, 8, 21);
  EmbeddingStore store(SegOptions(4));
  store.Rebuild(Iota(64), rows);
  const EmbeddingStore::View view = store.view();
  util::SetGlobalThreadCount(1);

  std::vector<SearchResult> out;
  // Warm the output vector and the thread-local fan-out scratch.
  for (int q = 0; q < 8; ++q) {
    view.SearchInto(rows[static_cast<size_t>(q)], 5, -1, &out);
  }
  util::ScopedAllocCounter counter;
  for (int q = 0; q < 32; ++q) {
    view.SearchInto(rows[static_cast<size_t>(q % 8)], 5, -1, &out);
  }
  EXPECT_EQ(counter.Delta().allocations, 0)
      << "steady-state serial store search must not touch the heap";
}

// ---------------------------------------------------------------------------
// Rebuilds and snapshot isolation.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, PinnedViewKeepsItsGenerationAcrossRebuild) {
  const int kN = 64, kDim = 8;
  auto rows = MakeRows(kN, kDim, 5);
  EmbeddingStore store(SegOptions(8));
  store.Rebuild(Iota(kN), rows);
  const EmbeddingStore::View old_view = store.view();

  rows[17][0] += 1.0f;
  store.Rebuild(Iota(kN), rows);
  const EmbeddingStore::View new_view = store.view();
  EXPECT_EQ(old_view.generation(), 1u);
  EXPECT_EQ(new_view.generation(), 2u);

  // The pinned old view still answers from its own generation.
  EXPECT_EQ(old_view.Embedding(17).ToVector()[0] + 1.0f,
            new_view.Embedding(17).ToVector()[0]);
}

TEST_F(StoreTest, RebuildWithIdenticalContentAnswersIdentically) {
  const auto rows = MakeRows(48, 8, 13);
  const auto queries = MakeRows(8, 8, 109);
  EmbeddingStore store(SegOptions(6));
  store.Rebuild(Iota(48), rows);
  const auto golden = CaptureGolden(store.view(), queries, 5);
  store.Rebuild(Iota(48), rows);
  EXPECT_EQ(store.view().generation(), 2u);
  EXPECT_EQ(CaptureGolden(store.view(), queries, 5), golden);
}

TEST_F(StoreTest, RebuildWithFewerRowsReplacesTheStore) {
  const auto rows = MakeRows(48, 8, 17);
  // Dropping rows changes max_id, hence span and every segment.
  EmbeddingStore store(SegOptions(6));
  store.Rebuild(Iota(48), rows);
  store.Rebuild(Iota(24), {rows.begin(), rows.begin() + 24});
  EXPECT_EQ(store.size(), 24);
  EXPECT_EQ(store.view().max_id(), 23);
  EXPECT_FALSE(store.Contains(30));
}

// ---------------------------------------------------------------------------
// Persistence: save -> load bit-identity at every shard count and thread
// count.
// ---------------------------------------------------------------------------

TEST_F(StoreTest, SaveLoadRoundTripIsBitIdentical) {
  const int kN = 200, kDim = 16, kK = 10;
  const auto rows = MakeRows(kN, kDim, 29);
  const auto queries = MakeRows(12, kDim, 101);

  for (int segments : {1, 2, 8}) {
    EmbeddingStore store(SegOptions(segments));
    store.Rebuild(Iota(kN), rows);
    const std::string dir =
        FreshDir("store_roundtrip_" + std::to_string(segments));
    ASSERT_TRUE(store.Save(dir).ok());

    for (int threads : {1, 4}) {
      util::SetGlobalThreadCount(threads);
      const auto golden = CaptureGolden(store.view(), queries, kK);

      EmbeddingStore loaded(SegOptions(segments));
      ASSERT_TRUE(loaded.Load(dir).ok())
          << "segments=" << segments << " threads=" << threads;
      const EmbeddingStore::View view = loaded.view();
      EXPECT_EQ(view.size(), kN);
      EXPECT_EQ(view.dim(), kDim);
      EXPECT_EQ(view.num_segments(), segments);
      EXPECT_TRUE(view.hnsw_ready());
      EXPECT_EQ(CaptureGolden(view, queries, kK), golden)
          << "segments=" << segments << " threads=" << threads;

      // Raw embedding rows survive byte-for-byte too.
      for (int id = 0; id < kN; id += 37) {
        EXPECT_EQ(view.Embedding(id).ToVector(),
                  rows[static_cast<size_t>(id)]);
      }
    }
  }
}

/// Replaces the file at `path` with an empty directory: it still opens,
/// but cannot be mapped.
void MakeUnmappable(const std::string& path) {
  ASSERT_TRUE(std::filesystem::remove(path));
  ASSERT_TRUE(std::filesystem::create_directory(path));
}

TEST_F(StoreTest, UnmappableSegmentFailsLoadAndModelRebuildsInMemory) {
  const auto rows = MakeRows(96, 8, 31);
  EmbeddingStore store(SegOptions(4));
  store.Rebuild(Iota(96), rows);
  const std::string dir = FreshDir("store_unmappable");
  ASSERT_TRUE(store.Save(dir).ok());
  MakeUnmappable(dir + "/" + SegmentFileName(2));

  // The store load fails closed and publishes nothing.
  EmbeddingStore loaded(SegOptions(4));
  EXPECT_EQ(loaded.Load(dir).code(), util::StatusCode::kIoError);
  EXPECT_EQ(loaded.view().generation(), 0u);
  EXPECT_EQ(loaded.size(), 0);

  // A model whose store_dir holds such a segment still serves: LoadWeights
  // rejects the persisted stores and re-encodes the corpus in memory, so
  // every answer equals the in-memory rebuild's.
  const data::TableCorpus corpus = explainti::testing::TinyCorpus();
  ExplainTiConfig config = explainti::testing::TinyConfig();
  config.store_segments = 2;
  ExplainTiModel reference(config, corpus);
  reference.RefreshStores();
  const std::string model_dir = FreshDir("store_unmappable_model");
  const std::string weights = model_dir + "_weights.bin";
  ASSERT_TRUE(reference.SaveWeights(weights).ok());
  ASSERT_TRUE(reference.SaveStores(model_dir).ok());
  MakeUnmappable(model_dir + "/type/" + SegmentFileName(0));

  config.store_dir = model_dir;
  ExplainTiModel restored(config, corpus);
  ASSERT_TRUE(restored.LoadWeights(weights).ok());
  std::remove(weights.c_str());
  const TaskData& task = reference.task_data(TaskKind::kType);
  for (size_t i = 0; i < task.test_ids.size() && i < 5; ++i) {
    const int id = task.test_ids[i];
    EXPECT_EQ(reference.PredictProbabilities(TaskKind::kType, id),
              restored.PredictProbabilities(TaskKind::kType, id));
    const Explanation a = reference.Explain(TaskKind::kType, id);
    const Explanation b = restored.Explain(TaskKind::kType, id);
    ASSERT_EQ(a.global.size(), b.global.size());
    for (size_t g = 0; g < a.global.size(); ++g) {
      EXPECT_EQ(a.global[g].train_sample_id, b.global[g].train_sample_id);
      EXPECT_EQ(a.global[g].influence, b.global[g].influence);
    }
  }
}

TEST_F(StoreTest, ReloadedStoreSavesAnIdenticalStore) {
  // Save -> load -> save -> load must stay bit-identical: the manifest
  // carries the HNSW geometry (seed, ef) so a second generation of files
  // reproduces the same graphs and the same search behaviour.
  const auto rows = MakeRows(64, 8, 37);
  const auto queries = MakeRows(6, 8, 107);
  EmbeddingStore store(SegOptions(2));
  store.Rebuild(Iota(64), rows);
  const std::string dir1 = FreshDir("store_regen1");
  ASSERT_TRUE(store.Save(dir1).ok());
  const auto golden = CaptureGolden(store.view(), queries, 5);

  EmbeddingStore mid{EmbeddingStore::Options{}};
  ASSERT_TRUE(mid.Load(dir1).ok());
  const std::string dir2 = FreshDir("store_regen2");
  ASSERT_TRUE(mid.Save(dir2).ok());

  EmbeddingStore end{EmbeddingStore::Options{}};
  ASSERT_TRUE(end.Load(dir2).ok());
  EXPECT_EQ(CaptureGolden(end.view(), queries, 5), golden);
}

TEST_F(StoreTest, SaveEmptyStoreIsFailedPrecondition) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  const util::Status status = store.Save(FreshDir("store_empty"));
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

TEST_F(StoreTest, LoadMissingDirectoryFailsAndKeepsCurrentSnapshot) {
  const auto rows = MakeRows(16, 4, 41);
  EmbeddingStore store(SegOptions(2));
  store.Rebuild(Iota(16), rows);
  const uint64_t generation = store.view().generation();

  EXPECT_EQ(store.Load("/nonexistent/store/dir").code(),
            util::StatusCode::kNotFound);
  // The failed load never published: same generation, same contents.
  EXPECT_EQ(store.view().generation(), generation);
  EXPECT_EQ(store.size(), 16);
}

TEST_F(StoreTest, SparseIdsRoundTrip) {
  // Non-contiguous ids leave some ranges empty; empty ranges get no file
  // and no manifest entry, and reload preserves membership exactly.
  const std::vector<int> ids = {3, 4, 40, 41, 42, 95};
  const auto rows = MakeRows(static_cast<int>(ids.size()), 8, 43);
  EmbeddingStore store(SegOptions(8));
  store.Rebuild(ids, rows);
  const std::string dir = FreshDir("store_sparse");
  ASSERT_TRUE(store.Save(dir).ok());

  EmbeddingStore loaded{EmbeddingStore::Options{}};
  ASSERT_TRUE(loaded.Load(dir).ok());
  const EmbeddingStore::View view = loaded.view();
  EXPECT_EQ(view.size(), static_cast<int64_t>(ids.size()));
  for (int id : ids) EXPECT_TRUE(view.Contains(id));
  EXPECT_FALSE(view.Contains(5));
  EXPECT_FALSE(view.Contains(50));
  EXPECT_EQ(view.max_id(), 95);
}

/// A manifest in the XTIMAN01 layout SaveManifest writes (dim 8, the
/// SegOptions HNSW settings), with `num_entries` written as given
/// whatever `entries` holds.
std::string ManifestImage(int64_t span, int64_t count, int64_t num_entries,
                          const std::vector<StoreManifest::Entry>& entries) {
  std::string image = "XTIMAN01";
  util::AppendPod(&image, uint32_t{1});  // Version.
  util::AppendPod(&image, uint32_t{0});  // Reserved.
  util::AppendPod(&image, int64_t{8});   // Dim.
  util::AppendPod(&image, span);
  util::AppendPod(&image, count);
  util::AppendPod(&image, num_entries);
  util::AppendPod(&image, uint64_t{42});  // HNSW seed.
  // M, ef_construction, ef_search, reserved.
  for (int32_t field : {6, 32, 24, 0}) util::AppendPod(&image, field);
  for (const StoreManifest::Entry& entry : entries) {
    util::AppendPod(&image, entry.index);
    util::AppendPod(&image, entry.count);
    util::AppendPod(&image, entry.content_hash);
  }
  return image;
}

// Forged but CRC-valid manifests, one per piece of arithmetic a load does
// on manifest fields. Each load fails with InvalidArgument before it
// sizes a table or wraps an int64: no throw, no crash, no UBSan report.
// A failed load publishes nothing.
TEST_F(StoreTest, ForgedManifestsAreRejectedWithoutOverflow) {
  // Real segment files behind the manifests: a load that got past the
  // manifest would go on to the segment-range arithmetic.
  EmbeddingStore store(SegOptions(2));
  store.Rebuild(Iota(32), MakeRows(32, 8, 47));
  const std::string dir = FreshDir("store_forged_manifest");
  ASSERT_TRUE(store.Save(dir).ok());
  const auto saved = LoadManifest(dir + "/manifest.xtm");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  const std::vector<StoreManifest::Entry>& entries = saved->entries;
  ASSERT_EQ(entries.size(), 2u);
  const uint64_t generation = store.view().generation();

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const struct {
    const char* site;
    std::string image;
  } forged[] = {
      // The entry table is sized before any entry is read: 2^40 entries
      // of 24 bytes, in a file that holds two.
      {"entry count", ManifestImage(16, 32, int64_t{1} << 40, entries)},
      // index * span + span: range 1 of span 2^62 ends at 2^63.
      {"range end", ManifestImage(int64_t{1} << 62, 32, 2, entries)},
      // The entry-count sum: two ranges of kMax rows each.
      {"count sum",
       ManifestImage(kMax, 2, 2,
                     {{0, kMax, entries[0].content_hash},
                      {1, kMax, entries[1].content_hash}})},
      // The range table holds last index + 1 slots.
      {"range table", ManifestImage(1, 1, 1, {{kMax, 1, 0}})},
  };
  for (const auto& [site, image] : forged) {
    ASSERT_TRUE(util::WriteFramedFile(dir + "/manifest.xtm", image).ok());
    EXPECT_EQ(store.Load(dir).code(), util::StatusCode::kInvalidArgument)
        << site;
  }
  // An index that passes every manifest check sizes nothing until its
  // segment file has loaded; range 2^40 has no file.
  ASSERT_TRUE(util::WriteFramedFile(
                  dir + "/manifest.xtm",
                  ManifestImage(1, 1, 1, {{int64_t{1} << 40, 1, 0}}))
                  .ok());
  EXPECT_EQ(store.Load(dir).code(), util::StatusCode::kNotFound);
  EXPECT_EQ(store.view().generation(), generation);
  EXPECT_EQ(store.size(), 32);
}

}  // namespace
}  // namespace explainti::core
