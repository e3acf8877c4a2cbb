#ifndef EXPLAINTI_TESTS_SESSION_FIXTURES_H_
#define EXPLAINTI_TESTS_SESSION_FIXTURES_H_

// Fixtures shared by the inference session tests: tiny wiki and git
// corpora, a small config, a deterministic sample-id subset, and the
// sweep that checks every serving surface against the tape oracle.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "data/git_generator.h"
#include "data/wiki_generator.h"
#include "explanation_matchers.h"
#include "nn/exec_context.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

namespace explainti::testing {

// Restores the global pool to the environment-configured size when a test
// that sweeps thread counts finishes, so test order doesn't matter.
class GlobalPoolGuard {
 public:
  GlobalPoolGuard() = default;
  ~GlobalPoolGuard() { util::SetGlobalThreadCount(util::ConfiguredThreadCount()); }
};

inline data::TableCorpus TinyCorpus() {
  data::WikiTableOptions options;
  options.num_tables = 28;
  return data::GenerateWikiTableCorpus(options);
}

// Database tables: a single-label type task (softmax LE) and no relation
// task, where the wiki corpus is multi-label (sigmoid LE) with relations.
inline data::TableCorpus TinyGitCorpus() {
  data::GitTableOptions options;
  options.num_tables = 10;
  options.min_rows = 10;
  options.max_rows = 20;
  return data::GenerateGitTableCorpus(options);
}

inline core::ExplainTiConfig TinyConfig(
    const std::string& base_model = "bert") {
  core::ExplainTiConfig config;
  config.base_model = base_model;
  config.sample_size = 4;
  config.top_k = 3;
  return config;
}

inline std::vector<int> SampleIds(const core::TaskData& task) {
  std::vector<int> ids;
  const int n = static_cast<int>(task.samples.size());
  for (int id = 0; id < n && static_cast<int>(ids.size()) < 6; id += 3) {
    ids.push_back(id);
  }
  return ids;
}

// Every fp32 serving method of `model`'s session must agree bit for bit
// with the tape-building eval forward on the sampled ids of every task
// (all of them with `every_sample`, so rare tail branches run): Predict,
// PredictProbabilities and Explain (every field) against the model's own,
// and EncodeBatch against row 0 of the tape encoder. Returns how many
// explanations took SE's no-usable-neighbour self branch, so a caller can
// report whether that branch was exercised.
inline int ExpectSessionMatchesTape(const core::ExplainTiModel& model,
                                    bool every_sample = false) {
  const core::InferenceSession& session = model.session();
  int self_branch = 0;
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    if (!model.HasTask(kind)) continue;
    const core::TaskData& task = model.task_data(kind);
    const std::vector<int> defaults = SampleIds(task);
    std::vector<int> ids = defaults;
    if (every_sample) {
      ids.resize(task.samples.size());
      for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
    }
    for (int id : ids) {
      SCOPED_TRACE("sample " + std::to_string(id));
      const core::Explanation want = model.Explain(kind, id);
      ExpectExplanationsBitEqual(want, session.Explain(kind, id));
      // Beyond the default ids the tape Explain's labels and probabilities
      // stand in for the tape Predict's (LE and GE never change the final
      // logits), keeping the sweep at one tape Explain per sample.
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
    const auto embs = session.EncodeBatch(kind, ids);
    if (embs.size() != ids.size()) {
      ADD_FAILURE() << "EncodeBatch returned " << embs.size() << " rows";
      continue;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const core::TaskSample& sample =
          task.samples[static_cast<size_t>(ids[i])];
      const tensor::Tensor hidden = model.encoder().Forward(
          sample.seq.ids, sample.seq.segments, nn::ExecContext::Eval());
      ExpectBitEqual(embs[i], tensor::Row(hidden, 0).ToVector(),
                     "EncodeBatch");
    }
  }
  return self_branch;
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_SESSION_FIXTURES_H_
