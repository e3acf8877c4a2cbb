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
#include "core/inference_session.h"
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

// The tape-building eval forward's answers on the sampled ids of every
// task of `model` (all of them with `every_sample`, so rare tail branches
// run): what ExpectSessionMatches holds a session to. Computed once, they
// serve comparisons at any number of pool threads.
struct TapeAnswers {
  struct Task {
    core::TaskKind kind = core::TaskKind::kType;
    std::vector<int> ids;
    std::vector<core::Explanation> explanations;
    std::vector<std::vector<int>> labels;
    std::vector<std::vector<float>> probabilities;
    // Row 0 of the tape encoder, EncodeBatch's answer.
    std::vector<std::vector<float>> embeddings;
  };
  std::vector<Task> tasks;
};

inline TapeAnswers TapeAnswersFor(const core::ExplainTiModel& model,
                                  bool every_sample = false) {
  TapeAnswers answers;
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    if (!model.HasTask(kind)) continue;
    const core::TaskData& task = model.task_data(kind);
    TapeAnswers::Task& want = answers.tasks.emplace_back();
    want.kind = kind;
    const std::vector<int> defaults = SampleIds(task);
    want.ids = defaults;
    if (every_sample) {
      want.ids.resize(task.samples.size());
      for (size_t i = 0; i < want.ids.size(); ++i) {
        want.ids[i] = static_cast<int>(i);
      }
    }
    for (int id : want.ids) {
      const core::Explanation& explanation =
          want.explanations.emplace_back(model.Explain(kind, id));
      // Beyond the default ids the tape Explain's labels and probabilities
      // stand in for the tape Predict's (LE and GE never change the final
      // logits), keeping the sweep at one tape Explain per sample.
      const bool is_default =
          std::find(defaults.begin(), defaults.end(), id) != defaults.end();
      want.labels.push_back(is_default ? model.Predict(kind, id)
                                       : explanation.predicted_labels);
      want.probabilities.push_back(is_default
                                       ? model.PredictProbabilities(kind, id)
                                       : explanation.probabilities);
      const core::TaskSample& sample = task.samples[static_cast<size_t>(id)];
      const tensor::Tensor hidden = model.encoder().Forward(
          sample.seq.ids, sample.seq.segments, nn::ExecContext::Eval());
      want.embeddings.push_back(tensor::Row(hidden, 0).ToVector());
    }
  }
  return answers;
}

// Every fp32 serving method of `model`'s session must agree bit for bit
// with the tape's `answers`: Predict, PredictProbabilities and Explain
// (every field), and EncodeBatch. Returns how many explanations took SE's
// no-usable-neighbour self branch, so a caller can report whether that
// branch was exercised.
inline int ExpectSessionMatches(const core::ExplainTiModel& model,
                                const TapeAnswers& answers) {
  const core::InferenceSession& session = model.session();
  int self_branch = 0;
  for (const TapeAnswers::Task& want : answers.tasks) {
    for (size_t i = 0; i < want.ids.size(); ++i) {
      const int id = want.ids[i];
      SCOPED_TRACE("sample " + std::to_string(id));
      ExpectExplanationsBitEqual(want.explanations[i],
                                 session.Explain(want.kind, id));
      EXPECT_EQ(session.Predict(want.kind, id), want.labels[i]);
      ExpectBitEqual(session.PredictProbabilities(want.kind, id),
                     want.probabilities[i], "PredictProbabilities");
      if (model.config().use_structural &&
          want.explanations[i].structural.size() == 1 &&
          want.explanations[i].structural[0].via ==
              graph::BridgeKind::kSelf) {
        ++self_branch;
      }
    }
    const auto embs = session.EncodeBatch(want.kind, want.ids);
    if (embs.size() != want.ids.size()) {
      ADD_FAILURE() << "EncodeBatch returned " << embs.size() << " rows";
      continue;
    }
    for (size_t i = 0; i < want.ids.size(); ++i) {
      ExpectBitEqual(embs[i], want.embeddings[i], "EncodeBatch");
    }
  }
  return self_branch;
}

// ExpectSessionMatches against the tape's answers taken now.
inline int ExpectSessionMatchesTape(const core::ExplainTiModel& model,
                                    bool every_sample = false) {
  return ExpectSessionMatches(model, TapeAnswersFor(model, every_sample));
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_SESSION_FIXTURES_H_
