#include "graph/column_graph.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace explainti::graph {
namespace {

/// Builds the graph of the paper's Figure 2 example: two tables sharing a
/// header, columns sharing titles within a table.
ColumnGraph ExampleGraph() {
  ColumnGraph graph;
  // Table 1 (title "t1"): columns 0 (header "player"), 1 ("team").
  graph.AddSample(0, "t1", "player");
  graph.AddSample(1, "t1", "team");
  // Table 2 (title "t2"): columns 2 ("player"), 3 ("college").
  graph.AddSample(2, "t2", "player");
  graph.AddSample(3, "t2", "college");
  // Isolated table: one column, unique title and header.
  graph.AddSample(4, "t3", "votes");
  return graph;
}

TEST(ColumnGraphTest, CountsSamples) {
  ColumnGraph graph = ExampleGraph();
  EXPECT_EQ(graph.num_samples(), 5);
}

TEST(ColumnGraphTest, NeighborsViaTitleAndHeader) {
  ColumnGraph graph = ExampleGraph();
  const auto neighbors = graph.Neighbors(0);
  std::map<int, BridgeKind> by_id;
  for (const SampledNeighbor& n : neighbors) by_id[n.sample_id] = n.via;
  // Column 0: via title t1 -> column 1; via header "player" -> column 2.
  ASSERT_EQ(by_id.size(), 2u);
  EXPECT_EQ(by_id.at(1), BridgeKind::kTitle);
  EXPECT_EQ(by_id.at(2), BridgeKind::kHeader);
}

TEST(ColumnGraphTest, NeighborsExcludeSelf) {
  ColumnGraph graph = ExampleGraph();
  for (int id = 0; id < graph.num_samples(); ++id) {
    for (const SampledNeighbor& n : graph.Neighbors(id)) {
      EXPECT_NE(n.sample_id, id);
    }
  }
}

TEST(ColumnGraphTest, NeighborhoodIsSymmetric) {
  ColumnGraph graph = ExampleGraph();
  for (int a = 0; a < graph.num_samples(); ++a) {
    for (const SampledNeighbor& n : graph.Neighbors(a)) {
      bool found = false;
      for (const SampledNeighbor& back : graph.Neighbors(n.sample_id)) {
        found = found || back.sample_id == a;
      }
      EXPECT_TRUE(found) << a << " -> " << n.sample_id << " not symmetric";
    }
  }
}

TEST(ColumnGraphTest, SampleNeighborsReturnsExactlyR) {
  ColumnGraph graph = ExampleGraph();
  util::Rng rng(1);
  for (int r : {1, 4, 16}) {
    EXPECT_EQ(graph.SampleNeighbors(0, r, rng).size(),
              static_cast<size_t>(r));
  }
}

TEST(ColumnGraphTest, SampleWithReplacementWhenFewNeighbors) {
  ColumnGraph graph = ExampleGraph();
  util::Rng rng(2);
  // Column 3 has a single neighbour (column 2 via title t2).
  const auto sampled = graph.SampleNeighbors(3, 8, rng);
  ASSERT_EQ(sampled.size(), 8u);
  for (const SampledNeighbor& n : sampled) {
    EXPECT_EQ(n.sample_id, 2);
    EXPECT_EQ(n.via, BridgeKind::kTitle);
  }
}

TEST(ColumnGraphTest, IsolatedSampleFallsBackToSelf) {
  ColumnGraph graph = ExampleGraph();
  util::Rng rng(3);
  const auto sampled = graph.SampleNeighbors(4, 4, rng);
  ASSERT_EQ(sampled.size(), 4u);
  for (const SampledNeighbor& n : sampled) {
    EXPECT_EQ(n.sample_id, 4);
    EXPECT_EQ(n.via, BridgeKind::kSelf);
  }
}

TEST(ColumnGraphTest, SamplingNeverReturnsSelfWhenNeighborsExist) {
  ColumnGraph graph = ExampleGraph();
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    for (const SampledNeighbor& n : graph.SampleNeighbors(0, 4, rng)) {
      EXPECT_NE(n.sample_id, 0);
    }
  }
}

TEST(ColumnGraphTest, SamplingCoversAllNeighborsEventually) {
  ColumnGraph graph = ExampleGraph();
  util::Rng rng(5);
  std::set<int> seen;
  for (int trial = 0; trial < 100; ++trial) {
    for (const SampledNeighbor& n : graph.SampleNeighbors(0, 2, rng)) {
      seen.insert(n.sample_id);
    }
  }
  EXPECT_EQ(seen, (std::set<int>{1, 2}));
}

TEST(ColumnGraphTest, PairGraphKeysKeepDirectionality) {
  // Column-pair graph: header-pair key "a||b" differs from "b||a".
  ColumnGraph graph;
  graph.AddSample(0, "t", "a||b");
  graph.AddSample(1, "t", "b||a");
  graph.AddSample(2, "u", "a||b");
  const auto neighbors = graph.Neighbors(0);
  std::map<int, BridgeKind> by_id;
  for (const SampledNeighbor& n : neighbors) by_id[n.sample_id] = n.via;
  EXPECT_EQ(by_id.at(1), BridgeKind::kTitle);   // Same table only.
  EXPECT_EQ(by_id.at(2), BridgeKind::kHeader);  // Same ordered pair.
}

TEST(BridgeKindTest, Names) {
  EXPECT_STREQ(BridgeKindName(BridgeKind::kTitle), "title");
  EXPECT_STREQ(BridgeKindName(BridgeKind::kHeader), "header");
  EXPECT_STREQ(BridgeKindName(BridgeKind::kSelf), "self");
}

}  // namespace
}  // namespace explainti::graph
