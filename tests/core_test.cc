#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/embedding_store.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "core/task_data.h"
#include "data/wiki_generator.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace explainti::core {
namespace {

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

std::shared_ptr<text::Vocab> CorpusVocab(const data::TableCorpus& corpus) {
  std::unordered_map<std::string, int64_t> counts;
  for (const data::Table& table : corpus.tables) {
    for (const std::string& token : text::BasicTokenize(table.title)) {
      ++counts[token];
    }
    for (const data::Column& column : table.columns) {
      for (const std::string& token : text::BasicTokenize(column.header)) {
        ++counts[token];
      }
      for (const std::string& cell : column.cells) {
        for (const std::string& token : text::BasicTokenize(cell)) {
          ++counts[token];
        }
      }
    }
  }
  return std::make_shared<text::Vocab>(text::BuildVocab(counts, 4000));
}

TEST(EmbeddingStoreTest, RebuildAndLookup) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  store.Rebuild({3, 7}, {{1.0f, 0.0f}, {0.0f, 1.0f}});
  // Every read goes through a pinned View; embedding rows are borrowed
  // from it, so they outlive no snapshot swap.
  const EmbeddingStore::View view = store.view();
  EXPECT_EQ(view.size(), 2);
  EXPECT_TRUE(view.Contains(3));
  EXPECT_FALSE(view.Contains(5));
  EXPECT_EQ(view.Embedding(7).ToVector(), (std::vector<float>{0.0f, 1.0f}));
}

TEST(EmbeddingStoreTest, SearchExcludesRequestedId) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  store.Rebuild({0, 1, 2},
                {{1.0f, 0.0f}, {0.9f, 0.1f}, {0.0f, 1.0f}});
  const auto hits = store.view().Search({1.0f, 0.0f}, 2, /*exclude_id=*/0);
  ASSERT_EQ(hits.size(), 2u);
  for (const auto& hit : hits) EXPECT_NE(hit.id, 0);
  EXPECT_EQ(hits[0].id, 1);
}

TEST(EmbeddingStoreTest, RebuildReplacesContents) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  store.Rebuild({0}, {{1.0f, 0.0f}});
  store.Rebuild({1}, {{0.0f, 1.0f}});
  const EmbeddingStore::View view = store.view();
  EXPECT_EQ(view.size(), 1);
  EXPECT_FALSE(view.Contains(0));
  EXPECT_TRUE(view.Contains(1));
}

TEST(EmbeddingStoreTest, ViewPinsOneGenerationAcrossRebuilds) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  store.Rebuild({0}, {{1.0f, 0.0f}});
  const EmbeddingStore::View old_view = store.view();
  EXPECT_EQ(old_view.generation(), 1u);

  store.Rebuild({1}, {{0.0f, 1.0f}});
  // The pinned view still serves its whole generation — lookups, search,
  // and membership all answer from the snapshot taken, never a mix.
  EXPECT_EQ(old_view.size(), 1);
  EXPECT_TRUE(old_view.Contains(0));
  EXPECT_FALSE(old_view.Contains(1));
  EXPECT_EQ(old_view.Embedding(0).ToVector(), (std::vector<float>{1.0f, 0.0f}));
  const auto old_hits = old_view.Search({1.0f, 0.0f}, 1);
  ASSERT_EQ(old_hits.size(), 1u);
  EXPECT_EQ(old_hits[0].id, 0);

  // A view taken after the rebuild sees only the new generation.
  const EmbeddingStore::View new_view = store.view();
  EXPECT_EQ(new_view.generation(), 2u);
  EXPECT_FALSE(new_view.Contains(0));
  EXPECT_TRUE(new_view.Contains(1));
}

TEST(EmbeddingStoreTest, ViewBeforeFirstRebuildIsEmpty) {
  EmbeddingStore store{EmbeddingStore::Options{}};
  const EmbeddingStore::View view = store.view();
  EXPECT_EQ(view.generation(), 0u);
  EXPECT_EQ(view.size(), 0);
  EXPECT_FALSE(view.Contains(0));
  EXPECT_TRUE(view.Search({1.0f, 0.0f}, 3).empty());
}

TEST(TaskDataTest, TypeTaskConstruction) {
  const data::TableCorpus corpus = TinyCorpus();
  auto vocab = CorpusVocab(corpus);
  text::WordPieceTokenizer tokenizer(vocab);
  text::SequenceSerializer serializer(&tokenizer, 40);
  const TaskData task = BuildTypeTaskData(corpus, serializer);

  EXPECT_EQ(task.kind, TaskKind::kType);
  EXPECT_TRUE(task.multi_label);
  EXPECT_EQ(task.samples.size(), corpus.type_samples.size());
  EXPECT_EQ(task.graph.num_samples(),
            static_cast<int>(corpus.type_samples.size()));
  EXPECT_EQ(task.train_ids.size() + task.valid_ids.size() +
                task.test_ids.size(),
            task.samples.size());
  for (int id : task.train_ids) EXPECT_TRUE(task.IsTrainSample(id));
  for (int id : task.test_ids) EXPECT_FALSE(task.IsTrainSample(id));
  // Every serialised sample is well-formed.
  for (const TaskSample& sample : task.samples) {
    EXPECT_EQ(sample.seq.ids.front(), text::SpecialTokens::kCls);
    EXPECT_EQ(sample.seq.ids.back(), text::SpecialTokens::kSep);
    EXPECT_FALSE(sample.labels.empty());
  }
}

TEST(TaskDataTest, RelationTaskConstruction) {
  const data::TableCorpus corpus = TinyCorpus();
  auto vocab = CorpusVocab(corpus);
  text::WordPieceTokenizer tokenizer(vocab);
  text::SequenceSerializer serializer(&tokenizer, 40);
  const TaskData task = BuildRelationTaskData(corpus, serializer);
  EXPECT_EQ(task.kind, TaskKind::kRelation);
  EXPECT_FALSE(task.multi_label);
  for (const TaskSample& sample : task.samples) {
    EXPECT_GT(sample.seq.sep_pos, 0);
    EXPECT_EQ(sample.labels.size(), 1u);
  }
}

TEST(TaskDataTest, SampleTextMergesSubwords) {
  const data::TableCorpus corpus = TinyCorpus();
  auto vocab = CorpusVocab(corpus);
  text::WordPieceTokenizer tokenizer(vocab);
  text::SequenceSerializer serializer(&tokenizer, 40);
  const TaskData task = BuildTypeTaskData(corpus, serializer);
  const std::string text = task.SampleText(0);
  EXPECT_EQ(text.find("[CLS]"), std::string::npos);
  EXPECT_EQ(text.find("##"), std::string::npos);
  EXPECT_NE(text.find("title"), std::string::npos);
}

// Shared fixture: one small trained model reused by all explanation
// invariant tests (training is the expensive part).
class TrainedModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new data::TableCorpus(TinyCorpus());
    model_ = new ExplainTiModel(TinyConfig(), *corpus_);
    model_->Fit();
  }
  static void TearDownTestSuite() {
    delete model_;
    delete corpus_;
    model_ = nullptr;
    corpus_ = nullptr;
  }

  static data::TableCorpus* corpus_;
  static ExplainTiModel* model_;
};

data::TableCorpus* TrainedModelTest::corpus_ = nullptr;
ExplainTiModel* TrainedModelTest::model_ = nullptr;

TEST_F(TrainedModelTest, HasBothTasks) {
  EXPECT_TRUE(model_->HasTask(TaskKind::kType));
  EXPECT_TRUE(model_->HasTask(TaskKind::kRelation));
}

TEST_F(TrainedModelTest, PredictReturnsValidLabels) {
  const TaskData& task = model_->task_data(TaskKind::kType);
  for (int id : task.test_ids) {
    const std::vector<int> labels = model_->Predict(TaskKind::kType, id);
    ASSERT_FALSE(labels.empty());
    for (int label : labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, task.num_labels);
    }
  }
}

TEST_F(TrainedModelTest, ProbabilitiesAreValid) {
  const std::vector<float> probs = model_->PredictProbabilities(
      TaskKind::kRelation, model_->task_data(TaskKind::kRelation).test_ids[0]);
  float total = 0.0f;
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
    total += p;
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);  // Relation task uses softmax.
}

TEST_F(TrainedModelTest, LocalRelevanceScoresFormDistribution) {
  const TaskData& task = model_->task_data(TaskKind::kType);
  const Explanation z = model_->Explain(TaskKind::kType, task.test_ids[0]);
  ASSERT_FALSE(z.local.empty());
  float total = 0.0f;
  for (const LocalExplanation& e : z.local) {
    EXPECT_GE(e.relevance, 0.0f);
    total += e.relevance;
  }
  EXPECT_NEAR(total, 1.0f, 1e-3f);
  // Sorted descending.
  for (size_t i = 1; i < z.local.size(); ++i) {
    EXPECT_GE(z.local[i - 1].relevance, z.local[i].relevance);
  }
  EXPECT_FALSE(z.local[0].text.empty());
}

TEST_F(TrainedModelTest, GlobalInfluenceScoresFormDistribution) {
  const TaskData& task = model_->task_data(TaskKind::kType);
  const Explanation z = model_->Explain(TaskKind::kType, task.test_ids[0]);
  ASSERT_FALSE(z.global.empty());
  float total = 0.0f;
  for (const GlobalExplanation& e : z.global) {
    EXPECT_GE(e.influence, 0.0f);
    EXPECT_TRUE(task.IsTrainSample(e.train_sample_id))
        << "GE must retrieve training samples";
    total += e.influence;
  }
  EXPECT_NEAR(total, 1.0f, 1e-3f);
}

TEST_F(TrainedModelTest, GlobalExcludesSelfForTrainSamples) {
  const TaskData& task = model_->task_data(TaskKind::kType);
  const int train_id = task.train_ids[0];
  const Explanation z = model_->Explain(TaskKind::kType, train_id);
  for (const GlobalExplanation& e : z.global) {
    EXPECT_NE(e.train_sample_id, train_id);
  }
}

TEST_F(TrainedModelTest, StructuralNeighborsAreTrainSamplesWithAttention) {
  const TaskData& task = model_->task_data(TaskKind::kType);
  const Explanation z = model_->Explain(TaskKind::kType, task.test_ids[0]);
  ASSERT_FALSE(z.structural.empty());
  float total = 0.0f;
  for (const StructuralExplanation& e : z.structural) {
    total += e.attention;
    if (e.via != graph::BridgeKind::kSelf) {
      EXPECT_TRUE(task.IsTrainSample(e.neighbor_sample_id));
    }
  }
  EXPECT_NEAR(total, 1.0f, 1e-3f);
}

TEST_F(TrainedModelTest, RelationExplanationsHavePairwiseWindows) {
  const TaskData& task = model_->task_data(TaskKind::kRelation);
  const Explanation z =
      model_->Explain(TaskKind::kRelation, task.test_ids[0]);
  ASSERT_FALSE(z.local.empty());
  EXPECT_GE(z.local[0].window_start2, 0)
      << "relation concepts must be window pairs";
}

TEST_F(TrainedModelTest, EvaluateBeatsRandomGuessing) {
  const eval::F1Scores f1 =
      model_->session().Evaluate(TaskKind::kType, data::SplitPart::kTest);
  // 30 labels; random multi-label guessing sits near zero.
  EXPECT_GT(f1.micro, 0.10);
}

TEST(ExplainTiModelTest, AblationConfigsRun) {
  const data::TableCorpus corpus = TinyCorpus();
  for (int variant = 0; variant < 4; ++variant) {
    ExplainTiConfig config = TinyConfig();
    config.epochs = 1;
    config.use_local = variant != 0;
    config.use_global = variant != 1;
    config.use_structural = variant != 2;
    config.dedup_cells = variant == 3;
    ExplainTiModel model(config, corpus);
    model.Fit();
    const std::vector<int> labels = model.Predict(
        TaskKind::kType, model.task_data(TaskKind::kType).test_ids[0]);
    EXPECT_FALSE(labels.empty());
  }
}

TEST(ExplainTiModelTest, RobertaBaseModelRuns) {
  const data::TableCorpus corpus = TinyCorpus();
  ExplainTiConfig config = TinyConfig();
  config.base_model = "roberta";
  config.epochs = 1;
  ExplainTiModel model(config, corpus);
  model.Fit();
  const Explanation z = model.Explain(
      TaskKind::kType, model.task_data(TaskKind::kType).test_ids[0]);
  EXPECT_FALSE(z.predicted_labels.empty());
}

}  // namespace
}  // namespace explainti::core
