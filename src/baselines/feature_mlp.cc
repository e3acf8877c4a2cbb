#include "baselines/feature_mlp.h"

#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::baselines {

namespace {
/// Hidden width of the MLP head.
constexpr int kHiddenDim = 64;
/// Hashed table-topic features Sato appends.
constexpr int kTopicDim = 64;
}  // namespace

Mlp::Mlp(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, util::Rng& rng)
    : hidden_(in_dim, hidden_dim, rng), out_(hidden_dim, out_dim, rng) {
  AddChild(&hidden_);
  AddChild(&out_);
}

tensor::Tensor Mlp::Forward(const tensor::Tensor& x) const {
  return out_.Forward(tensor::Relu(hidden_.Forward(x)));
}

FeatureMlpInterpreter::FeatureMlpInterpreter(std::string name,
                                             FeatureMlpConfig config)
    : TableInterpreter(std::move(name)), config_(config) {}

std::vector<float> FeatureMlpInterpreter::TypeFeatures(
    const data::TableCorpus& corpus, const data::TypeSample& sample) const {
  const data::Table& table =
      corpus.tables[static_cast<size_t>(sample.table_index)];
  std::vector<float> features = extractor_.Extract(
      table.columns[static_cast<size_t>(sample.column_index)].cells);
  if (config_.use_table_topic) {
    const std::vector<float> topic =
        extractor_.TableTopic(table, kTopicDim);
    features.insert(features.end(), topic.begin(), topic.end());
  }
  return features;
}

std::vector<float> FeatureMlpInterpreter::RelationFeatures(
    const data::TableCorpus& corpus, const data::RelationSample& s) const {
  const data::Table& table = corpus.tables[static_cast<size_t>(s.table_index)];
  std::vector<float> features =
      extractor_.Extract(table.columns[static_cast<size_t>(s.left_column)].cells);
  const std::vector<float> right = extractor_.Extract(
      table.columns[static_cast<size_t>(s.right_column)].cells);
  features.insert(features.end(), right.begin(), right.end());
  if (config_.use_table_topic) {
    const std::vector<float> topic =
        extractor_.TableTopic(table, kTopicDim);
    features.insert(features.end(), topic.begin(), topic.end());
  }
  return features;
}

void FeatureMlpInterpreter::TrainMlp(
    Mlp* mlp, const std::vector<std::vector<float>>& features,
    const std::vector<std::vector<int>>& labels,
    const std::vector<int>& train_ids, int num_labels, bool multi_label,
    util::Rng& rng) {
  tensor::AdamWOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  tensor::AdamW optimizer(mlp->Parameters(), adam_options);

  std::vector<int> order = train_ids;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    optimizer.ZeroGrad();
    int in_batch = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      const size_t id = static_cast<size_t>(order[i]);
      tensor::Tensor x = tensor::Tensor::FromVector(
          {static_cast<int64_t>(features[id].size())}, features[id]);
      tensor::Tensor logits = mlp->Forward(x);
      tensor::Tensor loss;
      if (multi_label) {
        std::vector<float> y(static_cast<size_t>(num_labels), 0.0f);
        for (int label : labels[id]) y[static_cast<size_t>(label)] = 1.0f;
        loss = tensor::BceWithLogitsLoss(logits, y);
      } else {
        loss = tensor::CrossEntropyLoss(logits, labels[id][0]);
      }
      loss = tensor::Scale(loss, 1.0f / static_cast<float>(config_.batch_size));
      loss.Backward();
      ++in_batch;
      if (in_batch == config_.batch_size || i + 1 == order.size()) {
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
      }
    }
  }
}

void FeatureMlpInterpreter::Fit(const data::TableCorpus& corpus) {
  util::Rng rng(config_.seed);
  type_multi_label_ = corpus.type_multi_label;
  num_type_labels_ = static_cast<int>(corpus.type_label_names.size());
  num_relation_labels_ =
      static_cast<int>(corpus.relation_label_names.size());

  // -- Type task. ---------------------------------------------------------
  type_features_.clear();
  std::vector<std::vector<int>> type_labels;
  for (const data::TypeSample& sample : corpus.type_samples) {
    type_features_.push_back(TypeFeatures(corpus, sample));
    type_labels.push_back(sample.labels);
  }
  type_mlp_ = std::make_unique<Mlp>(
      static_cast<int64_t>(type_features_[0].size()), kHiddenDim,
      num_type_labels_, rng);
  TrainMlp(type_mlp_.get(), type_features_, type_labels,
           corpus.TypeSampleIds(data::SplitPart::kTrain), num_type_labels_,
           type_multi_label_, rng);

  // -- Relation task (if annotated). ---------------------------------------
  relation_features_.clear();
  relation_mlp_.reset();
  if (!corpus.relation_samples.empty()) {
    std::vector<std::vector<int>> relation_labels;
    for (const data::RelationSample& sample : corpus.relation_samples) {
      relation_features_.push_back(RelationFeatures(corpus, sample));
      relation_labels.push_back({sample.label});
    }
    relation_mlp_ = std::make_unique<Mlp>(
        static_cast<int64_t>(relation_features_[0].size()),
        kHiddenDim, num_relation_labels_, rng);
    TrainMlp(relation_mlp_.get(), relation_features_, relation_labels,
             corpus.RelationSampleIds(data::SplitPart::kTrain),
             num_relation_labels_, /*multi_label=*/false, rng);
  }
}

bool FeatureMlpInterpreter::HasTask(core::TaskKind kind) const {
  return kind == core::TaskKind::kType ? type_mlp_ != nullptr
                                       : relation_mlp_ != nullptr;
}

std::vector<int> FeatureMlpInterpreter::Predict(core::TaskKind kind,
                                                int sample_id) const {
  const bool is_type = kind == core::TaskKind::kType;
  const auto& features = is_type ? type_features_ : relation_features_;
  const Mlp* mlp = is_type ? type_mlp_.get() : relation_mlp_.get();
  CHECK(mlp != nullptr);
  CHECK(sample_id >= 0 &&
        sample_id < static_cast<int>(features.size()));
  const auto& f = features[static_cast<size_t>(sample_id)];
  tensor::Tensor logits = mlp->Forward(
      tensor::Tensor::FromVector({static_cast<int64_t>(f.size())}, f));
  std::vector<int> out;
  // Logit >= 0 is sigmoid >= 0.5.
  eval::AppendDecodedLabels(logits.ToVector(), is_type && type_multi_label_,
                            0.0f, &out);
  return out;
}

std::unique_ptr<TableInterpreter> MakeSherlock(uint64_t seed) {
  FeatureMlpConfig config;
  config.seed = seed;
  config.use_table_topic = false;
  return std::make_unique<FeatureMlpInterpreter>("Sherlock", config);
}

std::unique_ptr<TableInterpreter> MakeSato(uint64_t seed) {
  FeatureMlpConfig config;
  config.seed = seed;
  config.use_table_topic = true;
  return std::make_unique<FeatureMlpInterpreter>("Sato", config);
}

}  // namespace explainti::baselines
