#include <set>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "data/corpus.h"
#include "data/git_generator.h"
#include "data/value_pools.h"
#include "data/wiki_generator.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace explainti::data {
namespace {

WikiTableOptions SmallWiki() {
  WikiTableOptions options;
  options.num_tables = 60;
  return options;
}

GitTableOptions SmallGit() {
  GitTableOptions options;
  options.num_tables = 40;
  options.min_rows = 10;
  options.max_rows = 20;
  return options;
}

TEST(WikiGeneratorTest, ProducesRequestedTables) {
  const TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  EXPECT_EQ(corpus.tables.size(), 60u);
  EXPECT_TRUE(corpus.type_multi_label);
  EXPECT_GT(corpus.type_samples.size(), corpus.tables.size());
  EXPECT_FALSE(corpus.relation_samples.empty());
  EXPECT_GE(corpus.type_label_names.size(), 20u);
  EXPECT_GE(corpus.relation_label_names.size(), 10u);
}

TEST(WikiGeneratorTest, DeterministicPerSeed) {
  const TableCorpus a = GenerateWikiTableCorpus(SmallWiki());
  const TableCorpus b = GenerateWikiTableCorpus(SmallWiki());
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    EXPECT_EQ(a.tables[i].title, b.tables[i].title);
    ASSERT_EQ(a.tables[i].columns.size(), b.tables[i].columns.size());
  }
  EXPECT_EQ(a.type_samples.size(), b.type_samples.size());
}

TEST(WikiGeneratorTest, DifferentSeedsDiffer) {
  WikiTableOptions other = SmallWiki();
  other.seed = 999;
  const TableCorpus a = GenerateWikiTableCorpus(SmallWiki());
  const TableCorpus b = GenerateWikiTableCorpus(other);
  int differing = 0;
  for (size_t i = 0; i < std::min(a.tables.size(), b.tables.size()); ++i) {
    differing += a.tables[i].title != b.tables[i].title;
  }
  EXPECT_GT(differing, 0);
}

TEST(WikiGeneratorTest, SampleIndicesAreValid) {
  const TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  for (const TypeSample& s : corpus.type_samples) {
    ASSERT_GE(s.table_index, 0);
    ASSERT_LT(s.table_index, static_cast<int>(corpus.tables.size()));
    const Table& table = corpus.tables[static_cast<size_t>(s.table_index)];
    ASSERT_GE(s.column_index, 0);
    ASSERT_LT(s.column_index, static_cast<int>(table.columns.size()));
    for (int label : s.labels) {
      ASSERT_GE(label, 0);
      ASSERT_LT(label, static_cast<int>(corpus.type_label_names.size()));
    }
  }
  for (const RelationSample& s : corpus.relation_samples) {
    const Table& table = corpus.tables[static_cast<size_t>(s.table_index)];
    ASSERT_LT(s.left_column, static_cast<int>(table.columns.size()));
    ASSERT_LT(s.right_column, static_cast<int>(table.columns.size()));
    ASSERT_NE(s.left_column, s.right_column);
    ASSERT_GE(s.label, 0);
    ASSERT_LT(s.label, static_cast<int>(corpus.relation_label_names.size()));
  }
}

TEST(WikiGeneratorTest, FineLabelsCarryCoarseAncestors) {
  const TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  int multi = 0;
  for (const TypeSample& s : corpus.type_samples) {
    if (s.labels.size() >= 2) ++multi;
    std::set<int> unique(s.labels.begin(), s.labels.end());
    EXPECT_EQ(unique.size(), s.labels.size()) << "duplicate labels";
  }
  EXPECT_GT(multi, 0) << "expected multi-label samples (fine + coarse)";
}

TEST(WikiGeneratorTest, EvidenceTokensAppearInColumnSerialization) {
  // The evidence oracle must point at tokens actually present in the
  // sample's own text (title/header/cells) — otherwise the simulated
  // judges would measure nothing.
  const TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  int checked = 0;
  for (const TypeSample& s : corpus.type_samples) {
    if (s.evidence.empty()) continue;
    ++checked;
    const text::ColumnText column = corpus.ColumnTextOf(s);
    std::unordered_set<std::string> tokens;
    for (const std::string& t : text::BasicTokenize(column.title)) {
      tokens.insert(t);
    }
    for (const std::string& t : text::BasicTokenize(column.header)) {
      tokens.insert(t);
    }
    for (const std::string& cell : column.cells) {
      for (const std::string& t : text::BasicTokenize(cell)) tokens.insert(t);
    }
    int present = 0;
    for (const std::string& e : s.evidence) present += tokens.count(e) > 0;
    EXPECT_GT(present, 0) << "no evidence token found in sample text";
  }
  EXPECT_GT(checked, 0);
}

TEST(WikiGeneratorTest, AmbiguityKnobsProduceGenericTitles) {
  WikiTableOptions options = SmallWiki();
  options.num_tables = 200;
  options.generic_title_prob = 0.5;
  const TableCorpus corpus = GenerateWikiTableCorpus(options);
  int generic = 0;
  for (const Table& table : corpus.tables) {
    // Generic titles never contain domain words like "nba" or "films".
    if (table.title.find("nba") == std::string::npos &&
        table.title.find("nfl") == std::string::npos &&
        table.title.find("film") == std::string::npos &&
        table.title.find("countr") == std::string::npos &&
        table.title.find("cities") == std::string::npos) {
      ++generic;
    }
  }
  EXPECT_GT(generic, 40);
}

TEST(GitGeneratorTest, DatabaseTablesShape) {
  const TableCorpus corpus = GenerateGitTableCorpus(SmallGit());
  EXPECT_EQ(corpus.tables.size(), 40u);
  EXPECT_FALSE(corpus.type_multi_label);
  EXPECT_TRUE(corpus.relation_samples.empty());
  for (const TypeSample& s : corpus.type_samples) {
    EXPECT_EQ(s.labels.size(), 1u);
  }
  const CorpusStatistics stats = ComputeStatistics(corpus);
  EXPECT_GE(stats.avg_rows, 10.0);
  EXPECT_GT(stats.avg_cols, 3.0);
}

TEST(GitGeneratorTest, ColumnOrderIsShuffled) {
  // Database exports have no canonical column order; the same label must
  // appear at different positions across tables (this is what defeats
  // TCN's positional aggregation).
  const TableCorpus corpus = GenerateGitTableCorpus(SmallGit());
  std::unordered_map<int, std::set<int>> positions_by_label;
  for (const TypeSample& s : corpus.type_samples) {
    positions_by_label[s.labels[0]].insert(s.column_index);
  }
  int multi_position = 0;
  for (const auto& [label, positions] : positions_by_label) {
    if (positions.size() > 1) ++multi_position;
  }
  EXPECT_GT(multi_position, 5);
}

TEST(SplitTest, PartitionsAllTables) {
  TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  AssignSplits(&corpus, 0.8, 0.1, 7);
  int train = 0;
  int valid = 0;
  int test = 0;
  for (SplitPart part : corpus.table_split) {
    train += part == SplitPart::kTrain;
    valid += part == SplitPart::kValid;
    test += part == SplitPart::kTest;
  }
  EXPECT_EQ(train + valid + test, static_cast<int>(corpus.tables.size()));
  EXPECT_GT(train, valid);
  EXPECT_GT(test, 0);
}

TEST(SplitTest, SampleIdsFollowTableSplit) {
  const TableCorpus corpus = GenerateWikiTableCorpus(SmallWiki());
  const auto train_ids = corpus.TypeSampleIds(SplitPart::kTrain);
  const auto test_ids = corpus.TypeSampleIds(SplitPart::kTest);
  std::set<int> train_set(train_ids.begin(), train_ids.end());
  for (int id : test_ids) EXPECT_EQ(train_set.count(id), 0u);
  EXPECT_EQ(train_ids.size() + test_ids.size() +
                corpus.TypeSampleIds(SplitPart::kValid).size(),
            corpus.type_samples.size());
}

TEST(ValuePoolsTest, CapitalsParallelToCountries) {
  EXPECT_EQ(ValuePools::Countries().size(), ValuePools::Capitals().size());
}

TEST(ValuePoolsTest, GeneratorsAreWellFormed) {
  util::Rng rng(1);
  EXPECT_NE(ValuePools::PersonName(rng).find(' '), std::string::npos);
  EXPECT_TRUE(ValuePools::FamilyName(rng).ends_with("idae"));
  EXPECT_TRUE(ValuePools::EnzymeName(rng).ends_with("ase"));
  EXPECT_TRUE(util::StartsWith(ValuePools::Code("sp", rng), "sp-"));
  const std::string year = ValuePools::Year(rng);
  EXPECT_EQ(year.size(), 4u);
}

TEST(StatisticsTest, MatchesHandComputation) {
  TableCorpus corpus;
  corpus.tables.push_back(Table{"t1", {Column{"a", {"1", "2"}}}});
  corpus.tables.push_back(
      Table{"t2", {Column{"b", {"1", "2", "3", "4"}}, Column{"c", {"x"}}}});
  corpus.type_label_names = {"l1", "l2"};
  const CorpusStatistics stats = ComputeStatistics(corpus);
  EXPECT_EQ(stats.num_tables, 2);
  EXPECT_DOUBLE_EQ(stats.avg_rows, 3.0);  // (2 + 4) / 2.
  EXPECT_DOUBLE_EQ(stats.avg_cols, 1.5);
  EXPECT_EQ(stats.num_type_labels, 2);
}

}  // namespace
}  // namespace explainti::data
