#include "core/inference_plan.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/git_generator.h"
#include "data/wiki_generator.h"
#include "explanation_matchers.h"
#include "golden_evidence.h"
#include "nn/exec_context.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/thread_pool.h"

namespace explainti::core {
namespace {

using explainti::testing::ExpectBitEqual;
using explainti::testing::ExpectExplanationsBitEqual;

class GlobalPoolGuard {
 public:
  GlobalPoolGuard() = default;
  ~GlobalPoolGuard() {
    util::SetGlobalThreadCount(util::ConfiguredThreadCount());
  }
};

data::TableCorpus TinyCorpus() {
  data::WikiTableOptions options;
  options.num_tables = 28;
  return data::GenerateWikiTableCorpus(options);
}

// Database tables: a single-label type task (softmax LE) and no relation
// task, where the wiki corpus is multi-label (sigmoid LE) with relations.
data::TableCorpus TinyGitCorpus() {
  data::GitTableOptions options;
  options.num_tables = 10;
  options.min_rows = 10;
  options.max_rows = 20;
  return data::GenerateGitTableCorpus(options);
}

ExplainTiConfig TinyConfig() {
  ExplainTiConfig config;
  config.base_model = "bert";
  config.sample_size = 4;
  config.top_k = 3;
  return config;
}

std::vector<int> SampleIds(const TaskData& task) {
  std::vector<int> ids;
  const int n = static_cast<int>(task.samples.size());
  for (int id = 0; id < n && static_cast<int>(ids.size()) < 6; id += 3) {
    ids.push_back(id);
  }
  return ids;
}

// -- Golden bit-equality: compiled plans vs the tape oracle ---------------

// Every fp32 serving method of `model`'s session must agree bit for bit
// with the tape-building eval forward on the sampled ids of every task
// (all of them with `every_sample`, so rare tail branches run): Predict,
// PredictProbabilities and Explain (every field) against the model's own,
// and EncodeBatch against row 0 of the tape encoder on the default ids
// plus one id of every other compiled plan. Returns how many
// explanations took SE's
// no-usable-neighbour self branch, so a caller can report whether that
// branch was exercised.
int ExpectSessionMatchesTape(const ExplainTiModel& model,
                             bool every_sample = false) {
  const InferenceSession& session = model.session();
  EXPECT_GT(session.plans_built(), 0);
  int self_branch = 0;
  for (TaskKind kind : {TaskKind::kType, TaskKind::kRelation}) {
    if (!model.HasTask(kind)) continue;
    const TaskData& task = model.task_data(kind);
    const std::vector<int> defaults = SampleIds(task);
    std::vector<int> ids = defaults;
    std::vector<int> encode_ids = defaults;
    std::set<const InferencePlan*> plans;
    for (int id : ids) plans.insert(&session.PlanFor(kind, id));
    if (every_sample) {
      ids.resize(task.samples.size());
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    }
    for (int id : ids) {
      SCOPED_TRACE("sample " + std::to_string(id));
      if (plans.insert(&session.PlanFor(kind, id)).second) {
        encode_ids.push_back(id);
      }
      const Explanation want = model.Explain(kind, id);
      ExpectExplanationsBitEqual(want, session.Explain(kind, id));
      // Beyond the default ids the tape Explain's labels and probabilities
      // stand in for the tape Predict's (LE and GE never change the final
      // logits), keeping the sweep at one tape forward per sample.
      const bool is_default =
          std::find(defaults.begin(), defaults.end(), id) != defaults.end();
      EXPECT_EQ(session.Predict(kind, id),
                is_default ? model.Predict(kind, id) : want.predicted_labels);
      ExpectBitEqual(session.PredictProbabilities(kind, id),
                     is_default ? model.PredictProbabilities(kind, id)
                                : want.probabilities,
                     "PredictProbabilities");
      if (model.config().use_structural && want.structural.size() == 1 &&
          want.structural[0].via == graph::BridgeKind::kSelf) {
        ++self_branch;
      }
    }
    const auto embs = session.EncodeBatch(kind, encode_ids);
    if (embs.size() != encode_ids.size()) {
      ADD_FAILURE() << "EncodeBatch returned " << embs.size() << " rows";
      continue;
    }
    for (size_t i = 0; i < encode_ids.size(); ++i) {
      const TaskSample& sample =
          task.samples[static_cast<size_t>(encode_ids[i])];
      const tensor::Tensor hidden = model.encoder().Forward(
          sample.seq.ids, sample.seq.segments, nn::ExecContext::Eval());
      ExpectBitEqual(embs[i], tensor::Row(hidden, 0).ToVector(),
                     "EncodeBatch");
    }
  }
  return self_branch;
}

// Both corpora (sigmoid and softmax LE), each first with empty stores —
// SE falls back to the base head and GE carries its degradation note —
// then with populated ones on every sample.
TEST(InferencePlanTest, PlanServesBitIdenticalToTape) {
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

// With structural explanations off the plan folds the classifier head in
// and Predict never touches the tensor graph at all; outputs must still
// match the tape bit for bit.
TEST(InferencePlanTest, FullPlanWithFoldedHeadWhenStructuralOff) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  ExplainTiConfig config = TinyConfig();
  config.use_structural = false;
  ExplainTiModel model(config, TinyCorpus());
  model.RefreshStores();
  const InferencePlan& compiled = model.session().PlanFor(
      TaskKind::kType, SampleIds(model.task_data(TaskKind::kType)).front());
  EXPECT_GE(compiled.logits_off, 0) << "head was not folded into the plan";
  EXPECT_GT(compiled.num_labels, 0);
  ExpectSessionMatchesTape(model);
}

// -- Weight updates: plans borrow the model's parameters -------------------

// The session compiles its plans when the model is constructed, before
// any training. Fit writes the trained weights into the same parameter
// storage the plans borrow, so the untouched session must serve the
// trained model bit-identically to the tape with no rebuild.
TEST(InferencePlanTest, PlansServeTrainedWeightsAfterFit) {
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

// -- Plan keying: per task, per sequence length ----------------------------

// Switching task mid-stream must select the right compiled plan each
// call: plans are keyed per (task, seq_len), so interleaved type/relation
// traffic answers exactly like two separate per-task streams.
TEST(InferencePlanTest, TaskSwitchMidStreamSelectsTheRightPlan) {
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

  // Each sample's plan matches its own shape (the relation serialization
  // differs from the type one, so the two tasks genuinely exercise
  // distinct plans even at equal lengths — head widths differ).
  for (int id : type_ids) {
    EXPECT_EQ(session.PlanFor(TaskKind::kType, id).seq_len,
              static_cast<int64_t>(session.task_data(TaskKind::kType)
                                       .samples[static_cast<size_t>(id)]
                                       .seq.ids.size()));
  }
  ASSERT_NE(&session.PlanFor(TaskKind::kType, type_ids.front()),
            &session.PlanFor(TaskKind::kRelation, rel_ids.front()))
      << "type and relation traffic share one plan object";

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
// full batch, or per-sample gives identical bits (each plan execution is
// independent — per-thread arenas, no cross-sample state).
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

// -- Hot-swap: plans are per-generation ------------------------------------

// A swap replica compiles its own plans (the old generation's die with
// its session), and serves the reloaded weights bit-identically.
TEST(InferencePlanTest, HotSwapReplicaGetsFreshPlans) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  model.RefreshStores();
  const std::string path = ::testing::TempDir() + "/plan_swap_weights.bin";
  ASSERT_TRUE(model.SaveWeights(path).ok());

  auto replica = LoadReplicaForSwap(TinyConfig(), corpus, path);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  const InferenceSession& fresh = (*replica)->session();
  EXPECT_GT(fresh.plans_built(), 0);

  const std::vector<int> ids = SampleIds(model.task_data(TaskKind::kType));
  // Distinct plan objects per generation — the replica did not inherit
  // (or dangle into) the old session's cache.
  EXPECT_NE(&fresh.PlanFor(TaskKind::kType, ids.front()),
            &model.session().PlanFor(TaskKind::kType, ids.front()));
  for (int id : ids) {
    ExpectBitEqual(fresh.PredictProbabilities(TaskKind::kType, id),
                   model.session().PredictProbabilities(TaskKind::kType, id),
                   "replica probabilities");
  }
}

// -- Steady state: zero allocations, zero arena misses ---------------------

// The executor's whole scratch arena comes from the per-thread workspace
// pool: once warmed, RunPlan performs zero heap allocations and never
// misses the buffer pool.
TEST(InferencePlanTest, SteadyStateRunPlanIsZeroAlloc) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiModel model(TinyConfig(), corpus);
  const InferenceSession& session = model.session();

  const TaskData& task = session.task_data(TaskKind::kType);
  const int id = SampleIds(task).front();
  const InferencePlan* plan = &session.PlanFor(TaskKind::kType, id);
  const TaskSample& sample = task.samples[static_cast<size_t>(id)];

  std::vector<float> encoder_out(
      static_cast<size_t>(plan->seq_len * plan->d_model));
  std::vector<float> logits(static_cast<size_t>(plan->num_labels));
  PlanRun run;
  run.token_ids = sample.seq.ids.data();
  run.segment_ids = plan->has_segments ? sample.seq.segments.data() : nullptr;
  run.encoder_out = encoder_out.data();
  run.encoder_out_rows = plan->seq_len;
  run.logits = plan->logits_off >= 0 ? logits.data() : nullptr;

  RunPlan(*plan, run);  // Warm-up: seeds the arena bucket.
  RunPlan(*plan, run);

  const tensor::WorkspaceStats ws_before = tensor::ThisThreadWorkspaceStats();
  const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
  for (int i = 0; i < 16; ++i) RunPlan(*plan, run);
  const util::AllocCounts heap_after = util::ThisThreadAllocCounts();
  const tensor::WorkspaceStats ws_after = tensor::ThisThreadWorkspaceStats();

  EXPECT_EQ(heap_after.allocations - heap_before.allocations, 0u)
      << "warmed-up RunPlan allocated on the heap";
  EXPECT_EQ(ws_after.buffer_misses, ws_before.buffer_misses)
      << "warmed-up RunPlan missed the workspace buffer pool";
  EXPECT_GT(ws_after.buffer_acquires, ws_before.buffer_acquires);
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
