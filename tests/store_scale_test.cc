// 100k-corpus embedding-store cases (ctest label: slow). Everything the
// tier-1 store_test certifies at toy scale — rebuilds, save/load
// bit-identity, mmap loading — re-checked at the corpus size the sharded
// store exists for.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/embedding_store.h"
#include "util/rng.h"

namespace explainti::core {
namespace {

constexpr int kN = 100000;
constexpr int kDim = 12;
constexpr int kSegments = 8;

EmbeddingStore::Options ScaleOptions() {
  EmbeddingStore::Options options;
  options.num_segments = kSegments;
  // Light graph parameters: this test certifies the store machinery at
  // scale, not recall (the bench gates recall with production settings).
  options.hnsw.M = 5;
  options.hnsw.ef_construction = 16;
  options.hnsw.ef_search = 24;
  return options;
}

std::vector<std::vector<float>> MakeRows(int n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> rows(static_cast<size_t>(n));
  for (auto& row : rows) {
    row.resize(kDim);
    for (float& x : row) x = static_cast<float>(rng.Normal());
  }
  return rows;
}

std::vector<int> Iota(int n) {
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  return ids;
}

TEST(StoreScaleTest, HundredThousandRowRebuildAndRoundTrip) {
  auto rows = MakeRows(kN, 51);
  EmbeddingStore store(ScaleOptions());
  store.Rebuild(Iota(kN), rows);
  EXPECT_EQ(store.view().size(), kN);
  EXPECT_EQ(store.view().num_segments(), kSegments);

  // A rebuild after one row changed publishes the changed row, at scale.
  rows[70000][0] += 1.0f;
  store.Rebuild(Iota(kN), rows);
  EXPECT_EQ(store.view().generation(), 2u);
  EXPECT_EQ(store.view().Embedding(70000).ToVector(), rows[70000]);

  // Save -> load in a fresh store stays bit-identical on a probe set.
  const std::string dir = ::testing::TempDir() + "/store_scale";
  std::system(("rm -rf " + dir).c_str());
  ASSERT_TRUE(store.Save(dir).ok());
  EmbeddingStore loaded{EmbeddingStore::Options{}};
  ASSERT_TRUE(loaded.Load(dir).ok());
  const EmbeddingStore::View a = store.view();
  const EmbeddingStore::View b = loaded.view();
  EXPECT_EQ(b.size(), kN);
  EXPECT_EQ(b.num_segments(), kSegments);
  for (int q = 0; q < kN; q += 9973) {
    const auto& query = rows[static_cast<size_t>(q)];
    const auto ha = a.Search(query, 10);
    const auto hb = b.Search(query, 10);
    ASSERT_EQ(ha.size(), hb.size()) << "q=" << q;
    for (size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].id, hb[i].id);
      EXPECT_EQ(ha[i].similarity, hb[i].similarity);
    }
    EXPECT_EQ(b.Embedding(q).ToVector(), query);
  }
  std::system(("rm -rf " + dir).c_str());
}

}  // namespace
}  // namespace explainti::core
