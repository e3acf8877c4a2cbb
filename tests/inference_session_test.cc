#include "core/inference_session.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "explanation_matchers.h"
#include "session_fixtures.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

using explainti::testing::Bits;
using explainti::testing::ExpectBitEqual;
using explainti::testing::ExpectExplanationsBitEqual;
using explainti::testing::ExpectSessionMatchesTape;
using explainti::testing::GlobalPoolGuard;
using explainti::testing::SampleIds;
using explainti::testing::TinyConfig;
using explainti::testing::TinyCorpus;

// -- Golden bit-equality: every sample, both base models, 1 and 4 threads,
//    structural explanations on and off. --------------------------------------

class GoldenBitEqualityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenBitEqualityTest, NoGradMatchesTapeBitForBit) {
  GlobalPoolGuard guard;
  const data::TableCorpus corpus = TinyCorpus();
  for (const bool structural : {true, false}) {
    ExplainTiConfig config = TinyConfig(GetParam());
    config.use_structural = structural;
    ExplainTiModel model(config, corpus);
    // Untrained weights are as good as trained ones for an equality test;
    // RefreshStores populates the GE/SE stores so all three explanation
    // views are exercised. With structural off Predict runs the base head
    // straight after the encoder.
    model.RefreshStores();
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(structural ? "structural" : "no structural") +
                   ", threads=" + std::to_string(threads));
      util::SetGlobalThreadCount(threads);
      ExpectSessionMatchesTape(model, /*every_sample=*/true);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BaseModels, GoldenBitEqualityTest,
                         ::testing::Values("bert", "roberta"));

// Weights written by the tape path and reloaded into a fresh model must
// serve identically through the fresh model's session.
TEST(InferenceSessionTest, SurvivesSaveLoadRoundTrip) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  model.RefreshStores();
  const std::string path = ::testing::TempDir() + "/session_weights.bin";
  ASSERT_TRUE(model.SaveWeights(path).ok());

  ExplainTiModel reloaded(TinyConfig("bert"), corpus);
  ASSERT_TRUE(reloaded.LoadWeights(path).ok());

  for (int id : SampleIds(model.task_data(TaskKind::kType))) {
    ExpectBitEqual(reloaded.session().PredictProbabilities(TaskKind::kType, id),
                   model.session().PredictProbabilities(TaskKind::kType, id),
                   "reloaded probabilities");
    ExpectExplanationsBitEqual(model.session().Explain(TaskKind::kType, id),
                               reloaded.session().Explain(TaskKind::kType, id));
  }
}

// Evaluate (now routed through the session) must agree with per-sample
// Predict — the same contract the old tape-path Evaluate satisfied.
TEST(InferenceSessionTest, EvaluateMatchesPerSamplePredict) {
  GlobalPoolGuard guard;
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  model.RefreshStores();
  const eval::F1Scores serial = [&] {
    util::SetGlobalThreadCount(1);
    return model.session().Evaluate(TaskKind::kType, data::SplitPart::kTest);
  }();
  util::SetGlobalThreadCount(4);
  const eval::F1Scores parallel =
      model.session().Evaluate(TaskKind::kType, data::SplitPart::kTest);
  EXPECT_EQ(Bits(static_cast<float>(serial.weighted)),
            Bits(static_cast<float>(parallel.weighted)));
  EXPECT_EQ(Bits(static_cast<float>(serial.macro)),
            Bits(static_cast<float>(parallel.macro)));
}

// -- Warmed-up Predict and Explain take all scratch from the per-thread
//    pool. --------------------------------------------------------

TEST(InferenceSessionTest, WarmPredictDoesNoTensorHeapAllocation) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  model.RefreshStores();
  const InferenceSession& session = model.session();
  const std::vector<int> ids = SampleIds(model.task_data(TaskKind::kType));

  for (const bool explain : {false, true}) {
    SCOPED_TRACE(explain ? "Explain" : "Predict");
    auto run = [&] {
      for (int id : ids) {
        if (explain) {
          session.Explain(TaskKind::kType, id);
        } else {
          session.Predict(TaskKind::kType, id);
        }
      }
    };
    run();  // Warm-up: grows the thread's scratch buffer to its largest call.
    run();  // Second pass: a warmed buffer serves every call without growing.

    // Steady state: every per-call scratch fits the thread's buffer —
    // acquires advance, misses (heap growths) do not.
    const tensor::WorkspaceStats before = tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
    run();
    const util::AllocCounts heap_mid = util::ThisThreadAllocCounts();
    run();
    const tensor::WorkspaceStats after = tensor::ThisThreadWorkspaceStats();
    const util::AllocCounts heap_after = util::ThisThreadAllocCounts();

    EXPECT_GT(after.buffer_acquires, before.buffer_acquires);
    EXPECT_EQ(after.buffer_misses - before.buffer_misses, 0)
        << "scratch buffer fell back to the heap on a warmed-up call";

    // Heap traffic that remains (result vectors, SE bookkeeping, records)
    // is exactly repeatable: two identical warmed passes allocate
    // identical counts.
    EXPECT_EQ(heap_mid.allocations - heap_before.allocations,
              heap_after.allocations - heap_mid.allocations);
    EXPECT_EQ(heap_mid.bytes - heap_before.bytes,
              heap_after.bytes - heap_mid.bytes);
  }
}

// Serving has no fallback path that could swallow a bad request: an
// out-of-range sample id dies on the session's range CHECK, never indexes
// past the task's samples.
TEST(InferenceSessionDeathTest, OutOfRangeSampleIdDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  const InferenceSession& session = model.session();
  const int n =
      static_cast<int>(model.task_data(TaskKind::kType).samples.size());
  EXPECT_DEATH((void)session.Predict(TaskKind::kType, n), "out of range");
  EXPECT_DEATH((void)session.Explain(TaskKind::kType, -1), "out of range");
  EXPECT_DEATH((void)session.EncodeBatch(TaskKind::kType, {0, n}),
               "out of range");
}

// -- Shared-session thread-safety (exercised under TSan via
//    the tier1 label; the tsan CI job runs this binary with 4 pool
//    threads). ---------------------------------------------------------------

TEST(InferenceSessionTsanTest, ConcurrentPredictExplainOnSharedWeights) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  model.RefreshStores();
  const InferenceSession& session = model.session();
  const std::vector<int> ids = SampleIds(model.task_data(TaskKind::kType));

  // Serial reference results first.
  std::vector<std::vector<int>> want_labels;
  std::vector<std::vector<float>> want_probs;
  for (int id : ids) {
    want_labels.push_back(session.Predict(TaskKind::kType, id));
    want_probs.push_back(session.PredictProbabilities(TaskKind::kType, id));
  }

  constexpr int kThreads = 4;
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < ids.size(); ++i) {
          // Skew each thread's visit order so calls genuinely overlap on
          // different samples.
          const size_t j = (i + static_cast<size_t>(t)) % ids.size();
          if (session.Predict(TaskKind::kType, ids[j]) != want_labels[j]) {
            failures[static_cast<size_t>(t)] = "Predict mismatch";
            return;
          }
          const std::vector<float> probs =
              session.PredictProbabilities(TaskKind::kType, ids[j]);
          if (probs.size() != want_probs[j].size() ||
              std::memcmp(probs.data(), want_probs[j].data(),
                          probs.size() * sizeof(float)) != 0) {
            failures[static_cast<size_t>(t)] = "probability mismatch";
            return;
          }
          const Explanation z = session.Explain(TaskKind::kType, ids[j]);
          if (z.predicted_labels != want_labels[j]) {
            failures[static_cast<size_t>(t)] = "Explain mismatch";
            return;
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], "") << "thread " << t;
  }
}

// GE/SE store rebuilds publish each new snapshot atomically, so a rebuild may
// run *while* explanations are being served: each forward pass pins one
// snapshot and never observes a half-built index or evidence mixed
// across store generations.
TEST(InferenceSessionTsanTest, ExplainBatchConsistentDuringStoreRebuilds) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(2);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig("bert"), corpus);
  model.RefreshStores();
  const InferenceSession& session = model.session();
  const std::vector<int> ids = SampleIds(model.task_data(TaskKind::kType));

  // Quiescent reference. The weights never change here, so every rebuild
  // republishes identical store content — any deviation below means a
  // forward pass read a torn snapshot (old code raced the in-place
  // rebuild exactly this way).
  const std::vector<Explanation> want =
      session.ExplainBatch(TaskKind::kType, ids);

  std::atomic<bool> stop{false};
  std::atomic<int> rebuilds{0};
  std::thread rebuilder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      model.RefreshStores();
      rebuilds.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int round = 0; round < 6; ++round) {
    const std::vector<Explanation> got =
        session.ExplainBatch(TaskKind::kType, ids);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectExplanationsBitEqual(want[i], got[i]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();
  EXPECT_GE(rebuilds.load(), 1);
}

}  // namespace
}  // namespace explainti::core
