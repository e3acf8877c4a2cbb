#include "eval/sufficiency.h"

#include <cmath>

#include "nn/linear.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace explainti::eval {

namespace {

// The probe's shape and training schedule.
constexpr int kHashDim = 256;
constexpr int kHiddenDim = 96;
constexpr int kEpochs = 40;
constexpr float kLearningRate = 2e-3f;
constexpr int kBatchSize = 16;
constexpr uint64_t kSeed = 97;

std::vector<float> BagOfWords(const std::string& textual) {
  std::vector<float> features(static_cast<size_t>(kHashDim), 0.0f);
  int64_t total = 0;
  for (const std::string& token : text::BasicTokenize(textual)) {
    features[static_cast<size_t>(util::HashTokenFeature(token) % kHashDim)] += 1.0f;
    ++total;
  }
  if (total > 0) {
    for (float& v : features) v /= static_cast<float>(total);
  }
  return features;
}

/// Two-layer probe; self-contained to keep eval independent of baselines.
class Probe : public nn::Module {
 public:
  Probe(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, util::Rng& rng)
      : hidden_(in_dim, hidden_dim, rng), out_(hidden_dim, out_dim, rng) {
    AddChild(&hidden_);
    AddChild(&out_);
  }
  tensor::Tensor Forward(const tensor::Tensor& x) const {
    return out_.Forward(tensor::Relu(hidden_.Forward(x)));
  }

 private:
  nn::Linear hidden_;
  nn::Linear out_;
};

}  // namespace

F1Scores EvaluateSufficiency(const ExplanationDataset& dataset) {
  CHECK_GT(dataset.num_labels, 0);
  CHECK_EQ(dataset.train_texts.size(), dataset.train_labels.size());
  CHECK_EQ(dataset.test_texts.size(), dataset.test_labels.size());
  CHECK(!dataset.train_texts.empty());

  util::Rng rng(kSeed);
  Probe probe(kHashDim, kHiddenDim, dataset.num_labels, rng);

  std::vector<std::vector<float>> train_features;
  train_features.reserve(dataset.train_texts.size());
  for (const std::string& textual : dataset.train_texts) {
    train_features.push_back(BagOfWords(textual));
  }

  tensor::AdamWOptions adam_options;
  adam_options.learning_rate = kLearningRate;
  tensor::AdamW optimizer(probe.Parameters(), adam_options);

  std::vector<size_t> order(train_features.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    rng.Shuffle(order);
    optimizer.ZeroGrad();
    int in_batch = 0;
    for (size_t i = 0; i < order.size(); ++i) {
      const size_t id = order[i];
      tensor::Tensor x = tensor::Tensor::FromVector(
          {kHashDim}, train_features[id]);
      tensor::Tensor logits = probe.Forward(x);
      tensor::Tensor loss;
      if (dataset.multi_label) {
        std::vector<float> y(static_cast<size_t>(dataset.num_labels), 0.0f);
        for (int label : dataset.train_labels[id]) {
          y[static_cast<size_t>(label)] = 1.0f;
        }
        loss = tensor::BceWithLogitsLoss(logits, y);
      } else {
        loss = tensor::CrossEntropyLoss(logits, dataset.train_labels[id][0]);
      }
      loss =
          tensor::Scale(loss, 1.0f / static_cast<float>(kBatchSize));
      loss.Backward();
      ++in_batch;
      if (in_batch == kBatchSize || i + 1 == order.size()) {
        optimizer.Step();
        optimizer.ZeroGrad();
        in_batch = 0;
      }
    }
  }

  std::vector<LabeledPrediction> predictions;
  predictions.reserve(dataset.test_texts.size());
  for (size_t i = 0; i < dataset.test_texts.size(); ++i) {
    tensor::Tensor logits = probe.Forward(tensor::Tensor::FromVector(
        {kHashDim}, BagOfWords(dataset.test_texts[i])));
    LabeledPrediction p;
    p.gold = dataset.test_labels[i];
    // Logit >= 0 is sigmoid >= 0.5.
    AppendDecodedLabels(logits.ToVector(), dataset.multi_label, 0.0f,
                        &p.predicted);
    predictions.push_back(std::move(p));
  }
  return ComputeF1(predictions, dataset.num_labels);
}

}  // namespace explainti::eval
