#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/embedding_store.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace explainti::core {
namespace {

using util::fault::FaultKind;
using util::fault::FaultRegistry;
using util::fault::FaultSpec;

data::TableCorpus TinyCorpus() {
  data::WikiTableOptions options;
  options.num_tables = 40;
  return data::GenerateWikiTableCorpus(options);
}

ExplainTiConfig TinyConfig() {
  ExplainTiConfig config;
  config.epochs = 2;
  config.pretrain_epochs = 1;
  config.sample_size = 4;
  config.top_k = 3;
  return config;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
}

/// Every test leaves the process-wide registry clean.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Fault registry scheduling.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, UnarmedSitesAreInert) {
  EXPECT_TRUE(FAULT_POINT("test.never.armed").ok());
  EXPECT_FALSE(
      util::fault::ShouldInject("test.never.armed", FaultKind::kNan));
}

TEST_F(RobustnessTest, FiresOnEveryNthHit) {
  FaultSpec spec;
  spec.every_n = 3;
  FaultRegistry::Instance().Arm("test.sched", spec);
  int fired = 0;
  for (int hit = 1; hit <= 9; ++hit) {
    const util::Status status = FAULT_POINT("test.sched");
    EXPECT_EQ(status.ok(), hit % 3 != 0) << hit;  // Hits 3, 6 and 9 fire.
    if (!status.ok()) {
      ++fired;
      EXPECT_EQ(status.code(), util::StatusCode::kIoError);
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(RobustnessTest, MaxFiresSelfDisarms) {
  FaultSpec spec;
  spec.max_fires = 2;
  FaultRegistry::Instance().Arm("test.fuse", spec);
  EXPECT_FALSE(FAULT_POINT("test.fuse").ok());
  EXPECT_FALSE(FAULT_POINT("test.fuse").ok());
  EXPECT_TRUE(FAULT_POINT("test.fuse").ok());
  EXPECT_FALSE(FaultRegistry::Instance().AnyArmed());
}

TEST_F(RobustnessTest, DisarmRestoresNormalOperation) {
  FaultSpec spec;
  FaultRegistry::Instance().Arm("test.off", spec);
  EXPECT_FALSE(FAULT_POINT("test.off").ok());
  FaultRegistry::Instance().DisarmAll();
  EXPECT_TRUE(FAULT_POINT("test.off").ok());
}

// ---------------------------------------------------------------------------
// Checkpoint integrity.
// ---------------------------------------------------------------------------

Checkpoint MakeCheckpoint() {
  Checkpoint ckpt;
  ckpt.next_epoch = 3;
  ckpt.schedule_step = 77;
  ckpt.best_valid_f1 = 0.5f;
  ckpt.best_epoch = 2;
  ckpt.params = {{1.0f, 2.0f}, {3.0f}};
  ckpt.best_params = {{0.5f, 1.5f}, {2.5f}};
  ckpt.opt_step_count = 42;
  ckpt.opt_m = {{0.1f, 0.2f}, {0.3f}};
  ckpt.opt_v = {{0.01f, 0.02f}, {0.03f}};
  return ckpt;
}

TEST_F(RobustnessTest, CheckpointRoundTrips) {
  const std::string path = "/tmp/explainti_ckpt_roundtrip.bin";
  const Checkpoint ckpt = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(path, ckpt).ok());
  util::StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->next_epoch, ckpt.next_epoch);
  EXPECT_EQ(loaded->schedule_step, ckpt.schedule_step);
  EXPECT_EQ(loaded->best_valid_f1, ckpt.best_valid_f1);
  EXPECT_EQ(loaded->best_epoch, ckpt.best_epoch);
  EXPECT_EQ(loaded->params, ckpt.params);
  EXPECT_EQ(loaded->best_params, ckpt.best_params);
  EXPECT_EQ(loaded->opt_step_count, ckpt.opt_step_count);
  EXPECT_EQ(loaded->opt_m, ckpt.opt_m);
  EXPECT_EQ(loaded->opt_v, ckpt.opt_v);
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, CheckpointMissingIsNotFound) {
  util::StatusOr<Checkpoint> loaded =
      LoadCheckpoint("/tmp/explainti_no_such_checkpoint.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(RobustnessTest, CheckpointPathNamingDirectoryIsIoError) {
  const std::string dir = ::testing::TempDir() + "/ckpt_is_a_directory";
  std::filesystem::create_directories(dir);
  util::StatusOr<Checkpoint> loaded = LoadCheckpoint(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError)
      << loaded.status().ToString();
}

TEST_F(RobustnessTest, CheckpointCorruptedByteRejected) {
  const std::string path = "/tmp/explainti_ckpt_corrupt.bin";
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  WriteFile(path, bytes);
  util::StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, CheckpointTruncationRejected) {
  const std::string path = "/tmp/explainti_ckpt_trunc.bin";
  ASSERT_TRUE(SaveCheckpoint(path, MakeCheckpoint()).ok());
  const std::string bytes = ReadFile(path);
  // Cut at several depths, including inside the header and inside the
  // parameter payload; every truncation must be rejected, never crash.
  for (size_t keep : {size_t{0}, size_t{4}, size_t{12}, bytes.size() / 2,
                      bytes.size() - 1}) {
    WriteFile(path, bytes.substr(0, keep));
    util::StatusOr<Checkpoint> loaded = LoadCheckpoint(path);
    EXPECT_FALSE(loaded.ok()) << "accepted a " << keep << "-byte prefix";
  }
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, CheckpointWriteFaultLeavesNoPartialFile) {
  const std::string path = "/tmp/explainti_ckpt_fault.bin";
  std::remove(path.c_str());
  FaultSpec spec;
  spec.code = util::StatusCode::kIoError;
  FaultRegistry::Instance().Arm("file.write", spec);
  const util::Status status = SaveCheckpoint(path, MakeCheckpoint());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Embedding store.
// ---------------------------------------------------------------------------

TEST_F(RobustnessTest, EmptyStoreSearchReturnsNothing) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  EXPECT_TRUE(store.view().Search({1.0f, 0.0f}, 3).empty());
}

// ---------------------------------------------------------------------------
// Hardened training pipeline. One fault-free baseline model is trained for
// the whole suite; faulty runs are compared against it.
// ---------------------------------------------------------------------------

class TrainingRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new data::TableCorpus(TinyCorpus());
    baseline_ = new ExplainTiModel(TinyConfig(), *corpus_);
    baseline_stats_ = new FitStats(baseline_->Fit());
  }
  static void TearDownTestSuite() {
    delete baseline_stats_;
    delete baseline_;
    delete corpus_;
    baseline_stats_ = nullptr;
    baseline_ = nullptr;
    corpus_ = nullptr;
  }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }

  static data::TableCorpus* corpus_;
  static ExplainTiModel* baseline_;
  static FitStats* baseline_stats_;
};

data::TableCorpus* TrainingRobustnessTest::corpus_ = nullptr;
ExplainTiModel* TrainingRobustnessTest::baseline_ = nullptr;
FitStats* TrainingRobustnessTest::baseline_stats_ = nullptr;

TEST_F(TrainingRobustnessTest, BaselineIsHealthy) {
  EXPECT_EQ(baseline_stats_->skipped_steps, 0);
  EXPECT_EQ(baseline_stats_->rollbacks, 0);
  EXPECT_FALSE(baseline_stats_->resumed);
  EXPECT_TRUE(std::isfinite(baseline_stats_->best_valid_f1));
}

TEST_F(TrainingRobustnessTest, SurvivesNanGradientsEveryFifthStep) {
  FaultSpec spec;
  spec.kind = FaultKind::kNan;
  spec.every_n = 5;
  FaultRegistry::Instance().Arm("optimizer.step", spec);

  ExplainTiModel faulty(TinyConfig(), *corpus_);
  const FitStats stats = faulty.Fit();
  FaultRegistry::Instance().DisarmAll();

  EXPECT_GT(stats.skipped_steps, 0);
  EXPECT_TRUE(std::isfinite(stats.best_valid_f1));

  const double base_f1 =
      baseline_->session().Evaluate(TaskKind::kType,
                                    data::SplitPart::kTest).weighted;
  const double faulty_f1 =
      faulty.session().Evaluate(TaskKind::kType,
                                data::SplitPart::kTest).weighted;
  EXPECT_TRUE(std::isfinite(faulty_f1));
  // Skipping the poisoned steps costs at most a few points of F1.
  EXPECT_NEAR(faulty_f1, base_f1, 0.05);
}

TEST_F(TrainingRobustnessTest, RollsBackAfterConsecutiveBadSteps) {
  FaultSpec spec;
  spec.kind = FaultKind::kNan;
  spec.every_n = 1;
  spec.max_fires = 6;
  FaultRegistry::Instance().Arm("optimizer.step", spec);

  ExplainTiConfig config = TinyConfig();
  config.max_bad_steps = 3;
  ExplainTiModel model(config, *corpus_);
  const FitStats stats = model.Fit();
  FaultRegistry::Instance().DisarmAll();

  // Six consecutive poisoned steps, rolled back after the 3rd and 6th.
  EXPECT_EQ(stats.skipped_steps, 6);
  EXPECT_EQ(stats.rollbacks, 2);
  EXPECT_TRUE(std::isfinite(stats.best_valid_f1));
  const double f1 =
      model.session().Evaluate(TaskKind::kType,
                               data::SplitPart::kTest).weighted;
  EXPECT_TRUE(std::isfinite(f1));
}

TEST_F(TrainingRobustnessTest, ResumesFromCheckpoint) {
  const std::string path = "/tmp/explainti_resume_test.ckpt";
  std::remove(path.c_str());
  ExplainTiConfig config = TinyConfig();
  config.checkpoint_path = path;

  ExplainTiModel first(config, *corpus_);
  const FitStats first_stats = first.Fit();
  EXPECT_FALSE(first_stats.resumed);
  ASSERT_TRUE(FileExists(path));

  // A second model over the same corpus resumes: no pre-training, no
  // fine-tuning epochs left, and identical final weights.
  ExplainTiModel second(config, *corpus_);
  const FitStats second_stats = second.Fit();
  EXPECT_TRUE(second_stats.resumed);
  EXPECT_EQ(second_stats.pretrain_seconds, 0.0);
  EXPECT_NEAR(second_stats.best_valid_f1, first_stats.best_valid_f1, 1e-6);
  const double f1_first =
      first.session().Evaluate(TaskKind::kType,
                               data::SplitPart::kTest).weighted;
  const double f1_second =
      second.session().Evaluate(TaskKind::kType,
                                data::SplitPart::kTest).weighted;
  EXPECT_NEAR(f1_second, f1_first, 1e-6);
  std::remove(path.c_str());
}

TEST_F(TrainingRobustnessTest, CorruptedCheckpointFallsBackToScratch) {
  const std::string path = "/tmp/explainti_resume_corrupt.ckpt";
  std::remove(path.c_str());
  ExplainTiConfig config = TinyConfig();
  config.checkpoint_path = path;

  ExplainTiModel first(config, *corpus_);
  first.Fit();
  ASSERT_TRUE(FileExists(path));
  std::string bytes = ReadFile(path);
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0xFF);
  WriteFile(path, bytes);

  ExplainTiModel second(config, *corpus_);
  const FitStats stats = second.Fit();
  EXPECT_FALSE(stats.resumed);  // Corruption detected; trained from scratch.
  EXPECT_TRUE(std::isfinite(stats.best_valid_f1));

  // A checkpoint path that cannot be read (it names a directory) is the
  // same: trained from scratch, never resumed.
  std::remove(path.c_str());
  const std::string dir = ::testing::TempDir() + "/resume_ckpt_directory";
  std::filesystem::create_directories(dir);
  ExplainTiConfig io_config = config;
  io_config.checkpoint_path = dir;
  ExplainTiModel third(io_config, *corpus_);
  const FitStats io_stats = third.Fit();
  EXPECT_FALSE(io_stats.resumed);
  EXPECT_TRUE(std::isfinite(io_stats.best_valid_f1));
}

}  // namespace
}  // namespace explainti::core
