// Serving-path checks: the straight-line encoder (TransformerEncoder::Serve)
// and the compiled explanation tail (InferenceSession::RunTail) against the
// tape oracle on every sample, after Fit, under interleaved and batched
// traffic, on hot-swap replicas, with zero steady-state allocation, and on
// the golden evidence.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "explanation_matchers.h"
#include "golden_evidence.h"
#include "nn/exec_context.h"
#include "session_fixtures.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

using explainti::testing::ExpectBitEqual;
using explainti::testing::ExpectSessionMatchesTape;
using explainti::testing::GlobalPoolGuard;
using explainti::testing::SampleIds;
using explainti::testing::TinyConfig;
using explainti::testing::TinyCorpus;
using explainti::testing::TinyGitCorpus;

// -- Every sample, both corpora, empty and populated stores ----------------

// Both corpora (sigmoid and softmax LE), each first with empty stores —
// SE falls back to the base head and GE carries its degradation note —
// then with populated ones on every sample.
TEST(InferencePlanTest, EverySampleBitIdenticalToTape) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(2);
  int self_branch = 0;
  for (const data::TableCorpus& corpus : {TinyCorpus(), TinyGitCorpus()}) {
    ExplainTiModel model(TinyConfig(), corpus);
    ExpectSessionMatchesTape(model);
    model.RefreshStores();
    self_branch += ExpectSessionMatchesTape(model, /*every_sample=*/true);
  }
  RecordProperty("se_self_branch_samples", self_branch);
}

// -- Weight updates: serving reads the model's parameters in place ---------

// The session is built when the model is constructed, before any
// training. Fit writes the trained weights into the same parameter
// storage the serving forwards read, so the untouched session must serve
// the trained model bit-identically to the tape.
TEST(InferencePlanTest, ServesTrainedWeightsAfterFit) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  ExplainTiConfig config = TinyConfig();
  config.epochs = 1;
  config.pretrain_epochs = 1;
  ExplainTiModel model(config, TinyCorpus());
  const InferenceSession* session = &model.session();
  const int id = SampleIds(model.task_data(TaskKind::kType)).front();
  const std::vector<float> untrained =
      session->PredictProbabilities(TaskKind::kType, id);
  model.Fit();
  ASSERT_EQ(&model.session(), session) << "Fit replaced the session";
  EXPECT_NE(model.PredictProbabilities(TaskKind::kType, id), untrained)
      << "Fit left the weights unchanged; the test proves nothing";
  ExpectSessionMatchesTape(model);
}

// -- Mixed traffic and batching ---------------------------------------------

// Interleaved type/relation traffic must answer exactly like two
// separate per-task streams.
TEST(InferencePlanTest, InterleavedTaskTrafficMatchesPerTaskStreams) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();
  if (!session.HasTask(TaskKind::kRelation)) {
    GTEST_SKIP() << "corpus produced no relation task";
  }

  const std::vector<int> type_ids = SampleIds(session.task_data(TaskKind::kType));
  const std::vector<int> rel_ids =
      SampleIds(session.task_data(TaskKind::kRelation));

  // Per-task reference results from task-homogeneous streams...
  std::vector<std::vector<float>> want_type, want_rel;
  for (int id : type_ids) {
    want_type.push_back(session.PredictProbabilities(TaskKind::kType, id));
  }
  for (int id : rel_ids) {
    want_rel.push_back(session.PredictProbabilities(TaskKind::kRelation, id));
  }
  // ...must be reproduced exactly by an interleaved stream.
  const size_t rounds = std::max(type_ids.size(), rel_ids.size());
  for (size_t i = 0; i < rounds; ++i) {
    if (i < type_ids.size()) {
      ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, type_ids[i]),
                     want_type[i], "interleaved type");
    }
    if (i < rel_ids.size()) {
      ExpectBitEqual(
          session.PredictProbabilities(TaskKind::kRelation, rel_ids[i]),
          want_rel[i], "interleaved relation");
    }
  }
}

// Batch composition must not affect results: a sample served alone, in a
// full batch, or per-sample gives identical bits (each call is
// independent — per-thread scratch, no cross-sample state).
TEST(InferencePlanTest, BatchSizeOneMatchesFullBatch) {
  GlobalPoolGuard guard;
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  model.RefreshStores();
  const InferenceSession& session = model.session();
  const std::vector<int> ids = SampleIds(session.task_data(TaskKind::kType));

  util::SetGlobalThreadCount(4);
  const auto full = session.PredictProbabilitiesBatch(TaskKind::kType, ids);
  ASSERT_EQ(full.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto single =
        session.PredictProbabilitiesBatch(TaskKind::kType, {ids[i]});
    ASSERT_EQ(single.size(), 1u);
    ExpectBitEqual(single[0], full[i], "batch=1 vs full batch");
    util::SetGlobalThreadCount(1);
    ExpectBitEqual(session.PredictProbabilities(TaskKind::kType, ids[i]),
                   full[i], "per-sample vs full batch");
    util::SetGlobalThreadCount(4);
  }
}

// -- Hot-swap ----------------------------------------------------------------

// A swap replica serves the reloaded weights bit-identically to the
// generation it replaces.
TEST(InferencePlanTest, HotSwapReplicaServesBitIdentical) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  model.RefreshStores();
  const std::string path = ::testing::TempDir() + "/swap_weights.bin";
  ASSERT_TRUE(model.SaveWeights(path).ok());

  auto replica = LoadReplicaForSwap(TinyConfig(), corpus, path);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  const InferenceSession& fresh = (*replica)->session();
  for (int id : SampleIds(model.task_data(TaskKind::kType))) {
    ExpectBitEqual(fresh.PredictProbabilities(TaskKind::kType, id),
                   model.session().PredictProbabilities(TaskKind::kType, id),
                   "replica probabilities");
  }
}

// -- Steady state: zero allocations, zero pool misses ----------------------

// The encoder's raw-buffer forward allocates nothing itself: once the
// per-thread pool is warm, a Serve on pooled scratch performs zero heap
// allocations and never misses the pool — and matches the tape encoder —
// on a 1-thread and a 4-thread pool alike, since serving never fans one
// sample out over the pool. Both output shapes are covered: rows = len
// (Explain with LE) and rows = 1 (Predict and EncodeBatch, whose last
// layer computes only the [CLS] row).
TEST(InferencePlanTest, SteadyStateServeIsZeroAlloc) {
  GlobalPoolGuard guard;
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  const nn::TransformerEncoder& encoder = model.encoder();
  const TaskData& task = model.task_data(TaskKind::kType);
  const TaskSample& sample =
      task.samples[static_cast<size_t>(SampleIds(task).front())];
  const int64_t len = static_cast<int64_t>(sample.seq.ids.size());
  ASSERT_GT(len, 1) << "a one-token sample cannot tell the shapes apart";
  const int64_t d = encoder.config().d_model;
  const std::vector<float> tape =
      encoder
          .Forward(sample.seq.ids, sample.seq.segments,
                   nn::ExecContext::Eval())
          .ToVector();

  for (const int threads : {1, 4}) {
    util::SetGlobalThreadCount(threads);
    for (const int64_t rows : {len, int64_t{1}}) {
      SCOPED_TRACE("threads = " + std::to_string(threads) +
                   ", rows = " + std::to_string(rows));
      std::vector<float> out(static_cast<size_t>(rows * d));
      const auto serve = [&] {
        tensor::ScratchBuffer scratch(
            static_cast<size_t>(encoder.ServeScratchFloats(len)));
        encoder.Serve(sample.seq.ids, sample.seq.segments, scratch.data(),
                      out.data(), rows);
      };
      serve();  // Warm-up: grows the thread's scratch buffer.
      serve();

      const tensor::WorkspaceStats ws_before =
          tensor::ThisThreadWorkspaceStats();
      const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
      for (int i = 0; i < 16; ++i) serve();
      const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
      const tensor::WorkspaceStats ws_after =
          tensor::ThisThreadWorkspaceStats();

      EXPECT_EQ(heap_after.allocations - heap_before.allocations, 0u)
          << "warmed-up Serve allocated on the heap";
      EXPECT_EQ(ws_after.buffer_misses, ws_before.buffer_misses)
          << "warmed-up Serve grew the thread's scratch buffer";
      EXPECT_GT(ws_after.buffer_acquires, ws_before.buffer_acquires);
      ExpectBitEqual(out,
                     std::vector<float>(tape.begin(),
                                        tape.begin() + rows * d),
                     "Serve vs tape encoder");
    }
  }
}

// -- Golden evidence: the session tells the tape's story ------------------

// The shared golden-evidence fixture (tests/golden_evidence.h) pins the
// explanation evidence: the fp32 session must surface exactly the tape's
// top-window token sets on the golden samples.
TEST(InferencePlanTest, GoldenEvidenceMatchesTape) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  ExplainTiModel model(explainti::testing::GoldenConfig(),
                       explainti::testing::GoldenCorpus());
  model.RefreshStores();
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model.HasTask(kind)) continue;
    const auto want = explainti::testing::GoldenEvidence(model, kind);
    ASSERT_FALSE(want.empty());
    ASSERT_FALSE(want.front().empty()) << "golden sample produced no evidence";
    const auto got = explainti::testing::GoldenEvidence(model.session(), kind);
    EXPECT_EQ(explainti::testing::MeanEvidenceAgreement(want, got), 1.0);
    EXPECT_EQ(want, got);
  }
}

}  // namespace
}  // namespace explainti::core
