// CSV parsing/loading, model-weight persistence, and embedding-store
// persistence (segment/manifest corruption, fallback behaviour).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/embedding_store.h"
#include "core/explain_ti_model.h"
#include "data/csv_loader.h"
#include "data/wiki_generator.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace explainti {
namespace {

TEST(CsvTest, ParsesSimpleRows) {
  auto rows = util::ParseCsv("a,b,c\n1,2,3\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(CsvTest, HandlesQuotedFieldsAndEscapes) {
  auto rows = util::ParseCsv("\"a,b\",\"say \"\"hi\"\"\",plain\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "say \"hi\"");
  EXPECT_EQ((*rows)[0][2], "plain");
}

TEST(CsvTest, QuotedNewlineStaysInField) {
  auto rows = util::ParseCsv("\"line1\nline2\",x\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "line1\nline2");
}

TEST(CsvTest, ToleratesCrlfAndMissingFinalNewline) {
  auto rows = util::ParseCsv("a,b\r\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, EmptyFieldsPreserved) {
  auto rows = util::ParseCsv("a,,c\n,,\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0].size(), 3u);
  EXPECT_EQ((*rows)[1].size(), 3u);
  EXPECT_EQ((*rows)[0][1], "");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(util::ParseCsv("\"oops\n").ok());
}

TEST(CsvTest, WriteRoundTrips) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "needs,quote", "has \"quotes\""},
      {"second", "line\nbreak", ""}};
  auto parsed = util::ParseCsv(util::WriteCsv(rows));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rows);
}

TEST(CsvLoaderTest, BuildsTableWithHeaders) {
  auto table = data::TableFromCsvRows(
      {{"Player", "Team"}, {"james smith", "lakers"}, {"mary jones", "bulls"}},
      data::CsvLoadOptions{true, "1990 nba draft", 0});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->columns.size(), 2u);
  EXPECT_EQ(table->columns[0].header, "player");
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->columns[1].cells[0], "lakers");
  EXPECT_EQ(table->title, "1990 nba draft");
}

TEST(CsvLoaderTest, PadsRaggedRows) {
  auto table = data::TableFromCsvRows(
      {{"a", "b", "c"}, {"1"}, {"1", "2", "3", "4"}},
      data::CsvLoadOptions{true, "t", 0});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->columns[2].cells[0], "");
  EXPECT_EQ(table->num_rows(), 2);
}

TEST(CsvLoaderTest, SyntheticHeadersWithoutHeaderRow) {
  auto table = data::TableFromCsvRows({{"1", "2"}},
                                      data::CsvLoadOptions{false, "t", 0});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->columns[0].header, "column_0");
  EXPECT_EQ(table->num_rows(), 1);
}

TEST(CsvLoaderTest, MaxRowsCapsLoading) {
  std::vector<std::vector<std::string>> rows = {{"h"}};
  for (int i = 0; i < 10; ++i) rows.push_back({std::to_string(i)});
  auto table =
      data::TableFromCsvRows(rows, data::CsvLoadOptions{true, "t", 4});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 4);
}

/// Writes `content` to a fresh file under the test temp dir.
std::string WriteTempFile(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}

TEST(CsvLoaderTest, RejectsEmptyInput) {
  EXPECT_FALSE(data::TableFromCsvRows({}, {}).ok());
  EXPECT_FALSE(
      data::TableFromCsvRows({{"only", "headers"}}, {}).ok());
  // A file cut short inside a quoted field (a torn download) is rejected
  // with a typed error, never half-loaded.
  auto torn = data::LoadTableFromCsv(WriteTempFile(
      "torn.csv", "player,team\n\"james smith\",lakers\n\"mary jo"));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CsvLoaderTest, MissingFileIsIoError) {
  auto table = data::LoadTableFromCsv("/nonexistent/file.csv");
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), util::StatusCode::kIoError);

  // A file that exists but cannot be read gives the same typed error.
  const std::string path =
      WriteTempFile("readable.csv", "player,team\njames smith,lakers\n");
  util::fault::FaultSpec spec;
  spec.code = util::StatusCode::kIoError;
  util::fault::FaultRegistry::Instance().Arm("csv.read", spec);
  auto unreadable = data::LoadTableFromCsv(path);
  util::fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_FALSE(unreadable.ok());
  EXPECT_EQ(unreadable.status().code(), util::StatusCode::kIoError);
  EXPECT_TRUE(data::LoadTableFromCsv(path).ok());
}

TEST(WeightsIoTest, SaveLoadRoundTripPreservesPredictions) {
  data::WikiTableOptions options;
  options.num_tables = 30;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);

  core::ExplainTiConfig config;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  core::ExplainTiModel trained(config, corpus);
  trained.Fit();

  const std::string path = "/tmp/explainti_weights_test.bin";
  ASSERT_TRUE(trained.SaveWeights(path).ok());

  // A fresh, untrained model with the same architecture.
  core::ExplainTiModel restored(config, corpus);
  ASSERT_TRUE(restored.LoadWeights(path).ok());

  const auto& task = trained.task_data(core::TaskKind::kType);
  for (size_t i = 0; i < task.test_ids.size() && i < 10; ++i) {
    const int id = task.test_ids[i];
    EXPECT_EQ(trained.PredictProbabilities(core::TaskKind::kType, id),
              restored.PredictProbabilities(core::TaskKind::kType, id));
  }
  std::remove(path.c_str());
}

TEST(WeightsIoTest, LoadRejectsWrongArchitecture) {
  data::WikiTableOptions options;
  options.num_tables = 30;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);

  core::ExplainTiConfig config;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  core::ExplainTiModel model(config, corpus);

  const std::string path = "/tmp/explainti_weights_bad.bin";
  ASSERT_TRUE(model.SaveWeights(path).ok());

  core::ExplainTiConfig other = config;
  other.max_seq_len = 24;  // Smaller position table -> shape mismatch.
  core::ExplainTiModel mismatched(other, corpus);
  EXPECT_FALSE(mismatched.LoadWeights(path).ok());
  std::remove(path.c_str());
}

TEST(WeightsIoTest, LoadRejectsGarbageFile) {
  const std::string path = "/tmp/explainti_weights_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not a weights file at all", f);
  fclose(f);

  data::WikiTableOptions options;
  options.num_tables = 30;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);
  core::ExplainTiConfig config;
  config.epochs = 1;
  core::ExplainTiModel model(config, corpus);
  EXPECT_FALSE(model.LoadWeights(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Embedding-store persistence: corruption is rejected with typed errors,
// and the model-level path falls back to the in-memory rebuild.
// ---------------------------------------------------------------------------

std::string FreshStoreDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::system(("rm -rf " + dir).c_str());
  return dir;
}

/// XORs one byte of `path` at `offset` (negative = from the end).
void FlipByte(const std::string& path, long offset) {
  FILE* f = fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET);
  const int c = fgetc(f);
  ASSERT_NE(c, EOF);
  fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET);
  fputc(c ^ 0x40, f);
  fclose(f);
}

core::EmbeddingStore::Options SegOptions(int num_segments) {
  core::EmbeddingStore::Options options;
  options.num_segments = num_segments;
  return options;
}

void FillSavableStore(core::EmbeddingStore* store) {
  util::Rng rng(19);
  std::vector<int> ids;
  std::vector<std::vector<float>> rows;
  for (int i = 0; i < 48; ++i) {
    ids.push_back(i);
    std::vector<float> v(8);
    for (float& x : v) x = static_cast<float>(rng.Normal());
    rows.push_back(std::move(v));
  }
  store->Rebuild(ids, rows);
}

TEST(StorePersistenceTest, CorruptSegmentFileIsTypedNotFatal) {
  core::EmbeddingStore store(SegOptions(4));
  FillSavableStore(&store);
  const std::string dir = FreshStoreDir("store_corrupt_segment");
  ASSERT_TRUE(store.Save(dir).ok());

  // Flip one byte in the middle of a segment payload and one in its CRC
  // footer; both must surface as InvalidArgument, never a crash, with the
  // loading store left on its previous (empty) snapshot.
  for (long offset : {200L, -2L}) {
    const std::string dir2 = FreshStoreDir("store_corrupt_segment_work");
    ASSERT_EQ(std::system(("cp -r " + dir + " " + dir2).c_str()), 0);
    FlipByte(dir2 + "/seg_000001.xts", offset);

    core::EmbeddingStore loaded;
    const util::Status status = loaded.Load(dir2);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "offset=" << offset << ": " << status.ToString();
    EXPECT_EQ(loaded.size(), 0);
    EXPECT_EQ(loaded.view().generation(), 0u);
  }
}

TEST(StorePersistenceTest, CorruptManifestIsTypedNotFatal) {
  core::EmbeddingStore store(SegOptions(2));
  FillSavableStore(&store);
  const std::string dir = FreshStoreDir("store_corrupt_manifest");
  ASSERT_TRUE(store.Save(dir).ok());
  FlipByte(dir + "/manifest.xtm", 12);

  core::EmbeddingStore loaded;
  const util::Status status = loaded.Load(dir);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(loaded.size(), 0);
}

TEST(StorePersistenceTest, TruncatedSegmentFileIsTypedNotFatal) {
  core::EmbeddingStore store(SegOptions(2));
  FillSavableStore(&store);
  const std::string dir = FreshStoreDir("store_truncated_segment");
  ASSERT_TRUE(store.Save(dir).ok());
  ASSERT_EQ(std::system(
                ("truncate -s 100 " + dir + "/seg_000000.xts").c_str()),
            0);

  core::EmbeddingStore loaded;
  EXPECT_EQ(loaded.Load(dir).code(), util::StatusCode::kInvalidArgument);
}

TEST(StorePersistenceTest, SaveFaultLeavesNoLoadableDir) {
  util::fault::FaultSpec spec;
  spec.max_fires = 1;
  util::fault::FaultRegistry::Instance().Arm("store.save", spec);
  core::EmbeddingStore store(SegOptions(2));
  FillSavableStore(&store);
  const std::string dir = FreshStoreDir("store_save_fault");
  const util::Status status = store.Save(dir);
  util::fault::FaultRegistry::Instance().DisarmAll();
  EXPECT_FALSE(status.ok());

  // The manifest goes last, so a failed save leaves nothing loadable —
  // and a retry on the same directory succeeds cleanly.
  core::EmbeddingStore loaded;
  EXPECT_EQ(loaded.Load(dir).code(), util::StatusCode::kNotFound);
  ASSERT_TRUE(store.Save(dir).ok());
  EXPECT_TRUE(loaded.Load(dir).ok());
  EXPECT_EQ(loaded.size(), store.size());
}

TEST(ModelStoreIoTest, RestoredModelReopensStoresWithoutReencoding) {
  data::WikiTableOptions options;
  options.num_tables = 30;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);

  core::ExplainTiConfig config;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  config.store_segments = 2;
  core::ExplainTiModel trained(config, corpus);
  trained.Fit();

  const std::string weights = "/tmp/explainti_store_io_weights.bin";
  const std::string store_dir = FreshStoreDir("model_stores");
  ASSERT_TRUE(trained.SaveWeights(weights).ok());
  ASSERT_TRUE(trained.SaveStores(store_dir).ok());

  // A fresh process image: same architecture, store_dir pointed at the
  // persisted stores. LoadWeights reopens them (mmap) instead of
  // re-encoding the corpus, and every store-dependent output — SE feeds
  // the final logits, GE drives the global view — matches bit-for-bit.
  core::ExplainTiConfig restored_config = config;
  restored_config.store_dir = store_dir;
  core::ExplainTiModel restored(restored_config, corpus);
  ASSERT_TRUE(restored.LoadWeights(weights).ok());

  const auto& task = trained.task_data(core::TaskKind::kType);
  for (size_t i = 0; i < task.test_ids.size() && i < 5; ++i) {
    const int id = task.test_ids[i];
    EXPECT_EQ(trained.PredictProbabilities(core::TaskKind::kType, id),
              restored.PredictProbabilities(core::TaskKind::kType, id));
    const core::Explanation a = trained.Explain(core::TaskKind::kType, id);
    const core::Explanation b = restored.Explain(core::TaskKind::kType, id);
    ASSERT_EQ(a.global.size(), b.global.size());
    for (size_t g = 0; g < a.global.size(); ++g) {
      EXPECT_EQ(a.global[g].train_sample_id, b.global[g].train_sample_id);
      EXPECT_EQ(a.global[g].influence, b.global[g].influence);
    }
  }
  std::remove(weights.c_str());
}

TEST(ModelStoreIoTest, CorruptStoreDirFallsBackToInMemoryRebuild) {
  data::WikiTableOptions options;
  options.num_tables = 30;
  const data::TableCorpus corpus = data::GenerateWikiTableCorpus(options);

  core::ExplainTiConfig config;
  config.epochs = 1;
  config.pretrain_epochs = 1;
  config.store_segments = 2;
  core::ExplainTiModel trained(config, corpus);
  trained.Fit();

  const std::string weights = "/tmp/explainti_store_fallback_weights.bin";
  const std::string store_dir = FreshStoreDir("model_stores_corrupt");
  ASSERT_TRUE(trained.SaveWeights(weights).ok());
  ASSERT_TRUE(trained.SaveStores(store_dir).ok());
  FlipByte(store_dir + "/type/manifest.xtm", -3);

  // The corrupt store is rejected, but LoadWeights does not fail: it
  // falls back to re-encoding the corpus, and predictions still match
  // (the rebuilt store holds the same embeddings).
  core::ExplainTiConfig restored_config = config;
  restored_config.store_dir = store_dir;
  core::ExplainTiModel restored(restored_config, corpus);
  ASSERT_TRUE(restored.LoadWeights(weights).ok());

  const auto& task = trained.task_data(core::TaskKind::kType);
  for (size_t i = 0; i < task.test_ids.size() && i < 5; ++i) {
    const int id = task.test_ids[i];
    EXPECT_EQ(trained.PredictProbabilities(core::TaskKind::kType, id),
              restored.PredictProbabilities(core::TaskKind::kType, id));
  }
  std::remove(weights.c_str());
}

}  // namespace
}  // namespace explainti
