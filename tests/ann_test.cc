#include <cmath>
#include <cstring>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "ann/flat_index.h"
#include "ann/hnsw_index.h"
#include "ann/index.h"
#include "util/binary_io.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace explainti::ann {
namespace {

std::vector<float> RandomVector(int dim, util::Rng& rng) {
  std::vector<float> v(static_cast<size_t>(dim));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

TEST(FlatIndexTest, ExactNearestOnHandBuiltVectors) {
  FlatIndex index;
  index.Add(0, {1.0f, 0.0f});
  index.Add(1, {0.0f, 1.0f});
  index.Add(2, {0.7f, 0.7f});
  const auto hits = index.Search({1.0f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 0);
  EXPECT_EQ(hits[1].id, 2);
  EXPECT_GT(hits[0].similarity, hits[1].similarity);
}

TEST(FlatIndexTest, CosineIsScaleInvariant) {
  FlatIndex index;
  index.Add(0, {1.0f, 0.0f});
  index.Add(1, {100.0f, 1.0f});
  const auto small = index.Search({0.5f, 0.01f}, 2);
  const auto large = index.Search({50.0f, 1.0f}, 2);
  EXPECT_EQ(small[0].id, large[0].id);
  EXPECT_NEAR(small[0].similarity, large[0].similarity, 1e-4f);
}

TEST(FlatIndexTest, KLargerThanSizeReturnsAll) {
  FlatIndex index;
  index.Add(7, {1.0f, 2.0f});
  EXPECT_EQ(index.Search({1.0f, 2.0f}, 10).size(), 1u);
}

TEST(HnswIndexTest, EmptySearchReturnsNothing) {
  HnswIndex index;
  EXPECT_TRUE(index.Search({}, 5).empty());
}

TEST(HnswIndexTest, SingleElement) {
  HnswIndex index;
  index.Add(42, {1.0f, 0.0f, 0.0f});
  const auto hits = index.Search({1.0f, 0.0f, 0.0f}, 3);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42);
  EXPECT_NEAR(hits[0].similarity, 1.0f, 1e-5f);
}

TEST(HnswIndexTest, ExactOnTinySet) {
  // With fewer elements than ef_search, HNSW degenerates to exact search.
  HnswIndex hnsw;
  FlatIndex flat;
  util::Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const auto v = RandomVector(8, rng);
    hnsw.Add(i, v);
    flat.Add(i, v);
  }
  util::Rng query_rng(2);
  for (int q = 0; q < 20; ++q) {
    const auto query = RandomVector(8, query_rng);
    const auto expected = flat.Search(query, 5);
    const auto actual = hnsw.Search(query, 5);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].id, expected[i].id) << "query " << q << " rank " << i;
    }
  }
}

struct RecallCase {
  int num_vectors;
  int dim;
  int ef_search;
  double min_recall;
};

class HnswRecallTest : public ::testing::TestWithParam<RecallCase> {};

TEST_P(HnswRecallTest, RecallAgainstExactSearch) {
  const RecallCase param = GetParam();
  HnswOptions options;
  options.ef_search = param.ef_search;
  HnswIndex hnsw(options);
  FlatIndex flat;
  util::Rng rng(7);
  for (int i = 0; i < param.num_vectors; ++i) {
    const auto v = RandomVector(param.dim, rng);
    hnsw.Add(i, v);
    flat.Add(i, v);
  }

  constexpr int kQueries = 40;
  constexpr int kTopK = 10;
  util::Rng query_rng(8);
  int hits = 0;
  for (int q = 0; q < kQueries; ++q) {
    const auto query = RandomVector(param.dim, query_rng);
    const auto expected = flat.Search(query, kTopK);
    const auto actual = hnsw.Search(query, kTopK);
    std::unordered_set<int64_t> truth;
    for (const SearchResult& r : expected) truth.insert(r.id);
    for (const SearchResult& r : actual) hits += truth.count(r.id) > 0;
  }
  const double recall =
      static_cast<double>(hits) / (kQueries * kTopK);
  EXPECT_GE(recall, param.min_recall);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HnswRecallTest,
    ::testing::Values(RecallCase{500, 16, 50, 0.90},
                      RecallCase{2000, 32, 50, 0.90},
                      RecallCase{2000, 32, 100, 0.95}),
    [](const ::testing::TestParamInfo<RecallCase>& info) {
      return "n" + std::to_string(info.param.num_vectors) + "_ef" +
             std::to_string(info.param.ef_search);
    });

TEST(HnswIndexTest, DeterministicAcrossInstances) {
  util::Rng rng(3);
  std::vector<std::vector<float>> data;
  for (int i = 0; i < 200; ++i) data.push_back(RandomVector(16, rng));

  HnswIndex a;
  HnswIndex b;
  for (int i = 0; i < 200; ++i) {
    a.Add(i, data[static_cast<size_t>(i)]);
    b.Add(i, data[static_cast<size_t>(i)]);
  }
  const auto query = RandomVector(16, rng);
  const auto hits_a = a.Search(query, 10);
  const auto hits_b = b.Search(query, 10);
  ASSERT_EQ(hits_a.size(), hits_b.size());
  for (size_t i = 0; i < hits_a.size(); ++i) {
    EXPECT_EQ(hits_a[i].id, hits_b[i].id);
  }
}

TEST(HnswIndexTest, SimilaritiesAreSortedDescending) {
  HnswIndex index;
  util::Rng rng(4);
  for (int i = 0; i < 300; ++i) index.Add(i, RandomVector(8, rng));
  const auto hits = index.Search(RandomVector(8, rng), 10);
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].similarity, hits[i].similarity);
  }
}

// ---------------------------------------------------------------------------
// Per-segment seed derivation.
// ---------------------------------------------------------------------------

TEST(SeedForSegmentTest, DeterministicPerPair) {
  EXPECT_EQ(SeedForSegment(42, 0), SeedForSegment(42, 0));
  EXPECT_EQ(SeedForSegment(42, 7), SeedForSegment(42, 7));
}

TEST(SeedForSegmentTest, DecorrelatesSiblingSegments) {
  // Sibling segments of one store must all get distinct seeds (identical
  // seeds would give every segment the same level pattern), and no
  // segment should inherit the base seed verbatim.
  std::unordered_set<uint64_t> seen;
  for (int64_t segment = 0; segment < 64; ++segment) {
    const uint64_t seed = SeedForSegment(42, segment);
    EXPECT_NE(seed, 42u);
    EXPECT_TRUE(seen.insert(seed).second) << "collision at " << segment;
  }
}

TEST(SeedForSegmentTest, DependsOnBaseSeed) {
  EXPECT_NE(SeedForSegment(1, 3), SeedForSegment(2, 3));
}

// ---------------------------------------------------------------------------
// Attached storage and graph serialisation.
// ---------------------------------------------------------------------------

/// Normalised row-major payload + ids, the shape a store segment attaches
/// its HNSW graph to.
struct AttachedRows {
  std::vector<int64_t> ids;
  std::vector<float> norm;
  int64_t count = 0;
  int64_t dim = 0;
};

/// `ternary` draws components from {-1, 0, 1} instead of N(0, 1): rows
/// repeat, so exact distance ties are common.
AttachedRows MakeAttachedRows(int count, int dim, uint64_t seed,
                              bool ternary = false) {
  AttachedRows rows;
  rows.count = count;
  rows.dim = dim;
  rows.norm.resize(static_cast<size_t>(count) * dim);
  util::Rng rng(seed);
  std::vector<float> raw(static_cast<size_t>(dim));
  for (int i = 0; i < count; ++i) {
    rows.ids.push_back(i);
    for (float& x : raw) {
      x = ternary ? static_cast<float>(static_cast<int>(rng.UniformInt(3)) - 1)
                  : static_cast<float>(rng.Normal());
    }
    L2NormalizeInto(raw.data(), dim, rows.norm.data() +
                                         static_cast<size_t>(i) * dim);
  }
  return rows;
}

TEST(HnswIndexTest, AttachedBuildMatchesOwnedBuild) {
  // Add() and AttachStorage()+InsertNode() consume randomness in the same
  // order, so the two build paths must produce byte-identical graphs.
  const int kDim = 8, kN = 120;
  util::Rng rng(13);
  std::vector<std::vector<float>> raw;
  for (int i = 0; i < kN; ++i) raw.push_back(RandomVector(kDim, rng));

  HnswOptions options;
  options.seed = 77;
  HnswIndex owned(options);
  AttachedRows rows;
  rows.count = kN;
  rows.dim = kDim;
  rows.norm.resize(static_cast<size_t>(kN) * kDim);
  for (int i = 0; i < kN; ++i) {
    owned.Add(i, raw[static_cast<size_t>(i)]);
    rows.ids.push_back(i);
    L2NormalizeInto(raw[static_cast<size_t>(i)].data(), kDim,
                    rows.norm.data() + static_cast<size_t>(i) * kDim);
  }
  HnswIndex attached(options);
  attached.AttachStorage(rows.ids.data(), rows.norm.data(), kN, kDim);
  for (int i = 0; i < kN; ++i) attached.InsertNode();

  std::string owned_graph, attached_graph;
  owned.SerializeGraph(&owned_graph);
  attached.SerializeGraph(&attached_graph);
  EXPECT_EQ(owned_graph, attached_graph);
}

TEST(HnswIndexTest, GraphRoundTripIsBitIdentical) {
  const AttachedRows rows = MakeAttachedRows(150, 8, 17);
  HnswOptions options;
  options.M = 6;
  options.ef_construction = 32;
  HnswIndex built(options);
  built.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                      rows.dim);
  for (int64_t i = 0; i < rows.count; ++i) built.InsertNode();

  std::string image;
  built.SerializeGraph(&image);
  HnswIndex loaded(options);
  loaded.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                       rows.dim);
  util::BinaryReader reader(image.data(), image.size());
  ASSERT_TRUE(loaded.LoadGraph(&reader).ok());

  // The restored graph re-serialises to the same bytes and answers every
  // query with the same ids and similarity bits.
  std::string reimage;
  loaded.SerializeGraph(&reimage);
  EXPECT_EQ(image, reimage);
  SearchScratch s1, s2;
  std::vector<SearchResult> h1, h2;
  for (int64_t q = 0; q < rows.count; q += 13) {
    const float* query = rows.norm.data() + static_cast<size_t>(q) * rows.dim;
    built.SearchNormalized(query, 10, &s1, &h1);
    loaded.SearchNormalized(query, 10, &s2, &h2);
    ASSERT_EQ(h1.size(), h2.size());
    for (size_t i = 0; i < h1.size(); ++i) {
      EXPECT_EQ(h1[i].id, h2[i].id);
      EXPECT_EQ(h1[i].similarity, h2[i].similarity);
    }
  }
}

TEST(HnswIndexTest, LoadGraphRejectsTruncatedImage) {
  const AttachedRows rows = MakeAttachedRows(40, 4, 19);
  HnswIndex built;
  built.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                      rows.dim);
  for (int64_t i = 0; i < rows.count; ++i) built.InsertNode();
  std::string image;
  built.SerializeGraph(&image);

  for (size_t cut : {size_t{0}, size_t{3}, image.size() / 2,
                     image.size() - 1}) {
    HnswIndex loaded;
    loaded.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                         rows.dim);
    util::BinaryReader reader(image.data(), cut);
    EXPECT_FALSE(loaded.LoadGraph(&reader).ok()) << "cut=" << cut;
  }
}

TEST(HnswIndexTest, LoadGraphRejectsOutOfRangeEntryPoint) {
  const AttachedRows rows = MakeAttachedRows(40, 4, 23);
  HnswIndex built;
  built.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                      rows.dim);
  for (int64_t i = 0; i < rows.count; ++i) built.InsertNode();
  std::string image;
  built.SerializeGraph(&image);
  // The entry point is the leading int32; point it past the node count.
  const int32_t bogus = 1000000;
  std::memcpy(image.data(), &bogus, sizeof(bogus));

  HnswIndex loaded;
  loaded.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                       rows.dim);
  util::BinaryReader reader(image.data(), image.size());
  const util::Status status = loaded.LoadGraph(&reader);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(HnswIndexTest, LoadGraphRejectsNodeCountMismatch) {
  const AttachedRows big = MakeAttachedRows(40, 4, 27);
  HnswIndex built;
  built.AttachStorage(big.ids.data(), big.norm.data(), big.count, big.dim);
  for (int64_t i = 0; i < big.count; ++i) built.InsertNode();
  std::string image;
  built.SerializeGraph(&image);

  const AttachedRows small = MakeAttachedRows(10, 4, 27);
  HnswIndex loaded;
  loaded.AttachStorage(small.ids.data(), small.norm.data(), small.count,
                       small.dim);
  util::BinaryReader reader(image.data(), image.size());
  EXPECT_FALSE(loaded.LoadGraph(&reader).ok());
}

TEST(HnswIndexTest, LoadGraphOnBuiltIndexIsFailedPrecondition) {
  const AttachedRows rows = MakeAttachedRows(20, 4, 31);
  HnswIndex built;
  built.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                      rows.dim);
  for (int64_t i = 0; i < rows.count; ++i) built.InsertNode();
  std::string image;
  built.SerializeGraph(&image);

  util::BinaryReader reader(image.data(), image.size());
  const util::Status status = built.LoadGraph(&reader);
  EXPECT_EQ(status.code(), util::StatusCode::kFailedPrecondition);
}

/// SerializeGraph() image of a hand-written graph: per node, per layer,
/// the neighbour list.
using Layers = std::vector<std::vector<int>>;

std::string GraphImage(int32_t entry, int32_t max_level,
                       const std::vector<Layers>& nodes) {
  std::string image;
  util::AppendPod(&image, entry);
  util::AppendPod(&image, max_level);
  util::AppendPod(&image, static_cast<int64_t>(nodes.size()));
  for (const auto& layers : nodes) {
    util::AppendPod(&image, static_cast<int32_t>(layers.size()));
    for (const auto& layer : layers) {
      util::AppendPod(&image, static_cast<int32_t>(layer.size()));
      for (int neighbor : layer) {
        util::AppendPod(&image, static_cast<int32_t>(neighbor));
      }
    }
  }
  return image;
}

util::Status LoadImage(const std::string& image, const AttachedRows& rows) {
  HnswIndex loaded;
  loaded.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                       rows.dim);
  util::BinaryReader reader(image.data(), image.size());
  return loaded.LoadGraph(&reader);
}

TEST(HnswIndexTest, LoadGraphRejectsEntryPointBelowMaxLevel) {
  const AttachedRows rows = MakeAttachedRows(3, 4, 37);
  // The same three-node graph, well-formed: node 0 spans layers 0..1.
  EXPECT_TRUE(
      LoadImage(GraphImage(0, 1, {{{1, 2}, {}}, {{0, 2}}, {{0, 1}}}), rows)
          .ok());
  // max_level 2 but the entry node has one layer: a search would descend
  // through layers the entry point does not have.
  const util::Status status =
      LoadImage(GraphImage(0, 2, {{{1, 2}}, {{0, 2}}, {{0, 1}}}), rows);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(HnswIndexTest, LoadGraphRejectsNeighbourAboveItsTopLayer) {
  const AttachedRows rows = MakeAttachedRows(3, 4, 41);
  // Node 0 links node 1 on layer 1, but node 1 only has layer 0.
  const util::Status status =
      LoadImage(GraphImage(0, 1, {{{1, 2}, {1}}, {{0, 2}}, {{0, 1}}}), rows);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Construction pin: the graph bytes of fixed seeded builds. A change to
// the beam search, the neighbour selection or the prune step that moves
// a single edge — including how distance ties fall — changes these
// hashes, at any thread count. Persisted stores and golden evidence
// depend on these graphs: re-capture the constants only for a deliberate
// change to how graphs are built.
// ---------------------------------------------------------------------------

struct GraphCase {
  int n, dim, M, ef_construction;
  uint64_t seed;
  bool ternary;
  uint64_t graph_hash;
};

uint64_t BuildGraphHash(const GraphCase& c) {
  const AttachedRows rows = MakeAttachedRows(c.n, c.dim, c.seed, c.ternary);
  HnswOptions options;
  options.M = c.M;
  options.ef_construction = c.ef_construction;
  options.seed = c.seed;
  HnswIndex index(options);
  index.AttachStorage(rows.ids.data(), rows.norm.data(), rows.count,
                      rows.dim);
  for (int i = 0; i < c.n; ++i) index.InsertNode();
  std::string image;
  index.SerializeGraph(&image);
  return util::HashBytes(image.data(), image.size());
}

TEST(HnswIndexTest, ConstructionIsPinned) {
  const GraphCase cases[] = {
      {150, 8, 6, 32, 17, false, 0x2b39492f0dbf8928ULL},
      {800, 16, 8, 48, 41, false, 0x59a2911ddda46ecdULL},
      {1500, 64, 16, 100, 43, false, 0x60de13db7b0c2d3fULL},
      {600, 4, 4, 8, 47, true, 0x08c9c25655387dadULL},
      // Wide rows: 768-dim distances, pinned at both pool sizes.
      {300, 768, 16, 100, 53, false, 0xc32737a93642c2a0ULL},
  };
  for (int threads : {1, 4}) {
    util::SetGlobalThreadCount(threads);
    for (const GraphCase& c : cases) {
      EXPECT_EQ(BuildGraphHash(c), c.graph_hash)
          << "n=" << c.n << " dim=" << c.dim << " M=" << c.M
          << " ef_construction=" << c.ef_construction
          << " threads=" << threads;
    }
  }
  util::SetGlobalThreadCount(util::ConfiguredThreadCount());
}

}  // namespace
}  // namespace explainti::ann
