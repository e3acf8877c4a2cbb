#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ann/flat_index.h"
#include "core/checkpoint.h"
#include "core/embedding_store.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "core/store_persistence.h"
#include "data/wiki_generator.h"
#include "segment_files.h"
#include "util/fault_injection.h"
#include "util/rng.h"
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
  EXPECT_EQ(FaultRegistry::Instance().hits("test.never.armed"), 0);
}

TEST_F(RobustnessTest, FiresOnEveryNthHit) {
  FaultSpec spec;
  spec.every_n = 3;
  FaultRegistry::Instance().Arm("test.sched", spec);
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    const util::Status status = FAULT_POINT("test.sched");
    if (!status.ok()) {
      ++fired;
      EXPECT_EQ(status.code(), util::StatusCode::kIoError);
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(FaultRegistry::Instance().hits("test.sched"), 9);
  EXPECT_EQ(FaultRegistry::Instance().fires("test.sched"), 3);
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
  FaultRegistry::Instance().Disarm("test.off");
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
  FaultRegistry::Instance().Arm("checkpoint.write", spec);
  const util::Status status = SaveCheckpoint(path, MakeCheckpoint());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), util::StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------------
// Embedding-store degradation ladder. Its one trigger is a segment file
// saved without its HNSW graph, which MakeSegmentFlatOnly writes.
// ---------------------------------------------------------------------------

void FillStore(EmbeddingStore& store, std::vector<int>& ids,
               std::vector<std::vector<float>>& embeddings) {
  util::Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    ids.push_back(i);
    std::vector<float> v(8);
    for (float& x : v) x = static_cast<float>(rng.Normal());
    embeddings.push_back(std::move(v));
  }
  store.Rebuild(ids, embeddings);
}

/// Saves `store` under the test temp dir as `name`, rewrites segment
/// `flat_segment` as flat-only, and loads the directory into `*loaded`.
void LoadWithFlatOnlySegment(const EmbeddingStore& store,
                             const std::string& name, int64_t flat_segment,
                             EmbeddingStore* loaded) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ASSERT_TRUE(store.Save(dir).ok());
  ASSERT_TRUE(explainti::testing::MakeSegmentFlatOnly(
      dir + "/" + SegmentFileName(flat_segment)));
  const util::Status status = loaded->Load(dir);
  ASSERT_TRUE(status.ok()) << status.ToString();
}

TEST_F(RobustnessTest, FlatOnlySegmentServesExactFlatSearch) {
  EmbeddingStore store;
  std::vector<int> ids;
  std::vector<std::vector<float>> embeddings;
  FillStore(store, ids, embeddings);
  ASSERT_TRUE(store.hnsw_ready());

  const std::vector<float>& query = embeddings[3];
  bool used_fallback = true;
  ASSERT_FALSE(
      store.Search(query, 3, /*exclude_id=*/-1, &used_fallback).empty());
  EXPECT_FALSE(used_fallback);

  EmbeddingStore loaded;
  LoadWithFlatOnlySegment(store, "robustness_flat_tier", 0, &loaded);
  EXPECT_FALSE(loaded.hnsw_ready());
  EXPECT_EQ(loaded.size(), 32);  // The flat tier holds everything.
  const auto degraded = loaded.Search(query, 3, /*exclude_id=*/-1,
                                      &used_fallback);
  EXPECT_TRUE(used_fallback);
  EXPECT_GE(loaded.degraded_searches(), 1);

  // The flat tier is exact: the same hits, bit for bit, as a reference
  // FlatIndex built over the same vectors.
  ann::FlatIndex reference;
  for (size_t i = 0; i < ids.size(); ++i) {
    reference.Add(ids[i], embeddings[i]);
  }
  const auto expected = reference.Search(query, 3);
  ASSERT_EQ(degraded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(degraded[i].id, expected[i].id) << "hit " << i;
    EXPECT_EQ(degraded[i].similarity, expected[i].similarity) << "hit " << i;
  }
}

TEST_F(RobustnessTest, FlatOnlySegmentDegradesAloneAndRebuildHealsIt) {
  // Segment-granular degradation: one flat-only segment file in a
  // 4-segment store. The other segments keep their graphs, and the store
  // keeps answering (flagged as fallback, since one shard serves flat).
  EmbeddingStore::Options options;
  options.num_segments = 4;
  EmbeddingStore store(options);
  std::vector<int> ids;
  std::vector<std::vector<float>> embeddings;
  FillStore(store, ids, embeddings);

  EmbeddingStore loaded(options);
  LoadWithFlatOnlySegment(store, "robustness_flat_segment", 1, &loaded);
  const EmbeddingStore::View view = loaded.view();
  ASSERT_EQ(view.num_segments(), 4);
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(view.segment_hnsw_ready(shard), shard != 1) << shard;
  }
  EXPECT_FALSE(view.hnsw_ready());

  // Every query still answers; any query is flagged because one shard of
  // the fan-out degraded.
  bool used_fallback = false;
  const auto hits = view.Search(embeddings[5], 3, /*exclude_id=*/-1,
                                &used_fallback);
  EXPECT_TRUE(used_fallback);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].id, 5);

  // A rebuild with identical content heals the flat-only segment (it is
  // NOT copy-on-write-reused without its graph) and reuses the three
  // healthy ones.
  loaded.Rebuild(ids, embeddings);
  EXPECT_TRUE(loaded.hnsw_ready());
  EXPECT_TRUE(loaded.view().segment_hnsw_ready(1));
  EXPECT_EQ(loaded.last_rebuild_stats().segments_built, 1);
  EXPECT_EQ(loaded.last_rebuild_stats().segments_reused, 3);
}

TEST_F(RobustnessTest, EmptyStoreSearchReturnsNothing) {
  EmbeddingStore store;
  bool used_fallback = false;
  EXPECT_TRUE(store.Search({1.0f, 0.0f}, 3, -1, &used_fallback).empty());
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
      baseline_->Evaluate(TaskKind::kType, data::SplitPart::kTest).weighted;
  const double faulty_f1 =
      faulty.Evaluate(TaskKind::kType, data::SplitPart::kTest).weighted;
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
      model.Evaluate(TaskKind::kType, data::SplitPart::kTest).weighted;
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
      first.Evaluate(TaskKind::kType, data::SplitPart::kTest).weighted;
  const double f1_second =
      second.Evaluate(TaskKind::kType, data::SplitPart::kTest).weighted;
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
  const std::string intact = ReadFile(path);
  std::string bytes = intact;
  bytes[bytes.size() / 3] = static_cast<char>(bytes[bytes.size() / 3] ^ 0xFF);
  WriteFile(path, bytes);

  ExplainTiModel second(config, *corpus_);
  const FitStats stats = second.Fit();
  EXPECT_FALSE(stats.resumed);  // Corruption detected; trained from scratch.
  EXPECT_TRUE(std::isfinite(stats.best_valid_f1));

  // An intact checkpoint whose read fails is the same: trained from
  // scratch, never resumed from a half-read file.
  WriteFile(path, intact);
  FaultSpec spec;
  spec.code = util::StatusCode::kIoError;
  FaultRegistry::Instance().Arm("checkpoint.read", spec);
  ExplainTiModel third(config, *corpus_);
  const FitStats io_stats = third.Fit();
  FaultRegistry::Instance().DisarmAll();
  EXPECT_FALSE(io_stats.resumed);
  EXPECT_TRUE(std::isfinite(io_stats.best_valid_f1));
  std::remove(path.c_str());
}

TEST_F(TrainingRobustnessTest, ExplainDegradesGracefullyOnFlatOnlySegment) {
  // The baseline's weights and stores, reloaded with one type-store
  // segment rewritten as flat-only.
  const std::string dir = ::testing::TempDir() + "/robustness_flat_stores";
  const std::string weights =
      ::testing::TempDir() + "/robustness_flat_weights.bin";
  ASSERT_TRUE(baseline_->SaveWeights(weights).ok());
  ASSERT_TRUE(baseline_->SaveStores(dir).ok());
  ASSERT_TRUE(explainti::testing::MakeSegmentFlatOnly(
      dir + "/type/" + SegmentFileName(0)));
  ExplainTiConfig config = TinyConfig();
  config.store_dir = dir;
  ExplainTiModel model(config, *corpus_);
  ASSERT_TRUE(model.LoadWeights(weights).ok());
  std::remove(weights.c_str());

  const TaskData& task = baseline_->task_data(TaskKind::kType);
  const int sample = task.test_ids.front();
  const Explanation healthy = baseline_->Explain(TaskKind::kType, sample);
  EXPECT_FALSE(healthy.ann_degraded);
  const Explanation degraded = model.Explain(TaskKind::kType, sample);

  EXPECT_TRUE(degraded.ann_degraded);
  EXPECT_FALSE(degraded.degradation_note.empty());
  // The explanation is still complete: all three views populated, same
  // prediction, and the exact flat tier agrees with HNSW on the most
  // influential sample.
  EXPECT_EQ(degraded.predicted_labels, healthy.predicted_labels);
  ASSERT_FALSE(degraded.global.empty());
  EXPECT_FALSE(degraded.local.empty());
  EXPECT_FALSE(degraded.structural.empty());
  ASSERT_FALSE(healthy.global.empty());
  EXPECT_EQ(degraded.global[0].train_sample_id,
            healthy.global[0].train_sample_id);

  // The serving session reads the same stores and carries the same note.
  const Explanation served = model.session().Explain(TaskKind::kType, sample);
  EXPECT_TRUE(served.ann_degraded);
  EXPECT_EQ(served.degradation_note, degraded.degradation_note);
}

}  // namespace
}  // namespace explainti::core
