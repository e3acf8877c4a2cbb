#ifndef EXPLAINTI_BASELINES_FEATURE_MLP_H_
#define EXPLAINTI_BASELINES_FEATURE_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/column_features.h"
#include "baselines/table_interpreter.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "util/rng.h"

namespace explainti::baselines {

/// Configuration shared by the feature-based baselines.
struct FeatureMlpConfig {
  int epochs = 30;
  float learning_rate = 1e-3f;
  int batch_size = 16;
  uint64_t seed = 21;
  /// Sato = Sherlock + table-level topic features.
  bool use_table_topic = false;
};

/// Two-layer MLP classifier head used by Sherlock and Sato.
class Mlp : public nn::Module {
 public:
  Mlp(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, util::Rng& rng);
  tensor::Tensor Forward(const tensor::Tensor& x) const;

 private:
  nn::Linear hidden_;
  nn::Linear out_;
};

/// Feature-engineering baseline family:
///  - Sherlock [37]: per-column hand-crafted features -> MLP.
///  - Sato [10]: Sherlock plus table-level topic features, giving it crude
///    table context (its edge over Sherlock in Table III).
/// Relation prediction concatenates the two columns' features, following
/// the paper's adaptation of these type-only systems.
class FeatureMlpInterpreter : public TableInterpreter {
 public:
  FeatureMlpInterpreter(std::string name, FeatureMlpConfig config);

  void Fit(const data::TableCorpus& corpus) override;
  bool HasTask(core::TaskKind kind) const override;
  std::vector<int> Predict(core::TaskKind kind, int sample_id) const override;

 private:
  std::vector<float> TypeFeatures(const data::TableCorpus& corpus,
                                  const data::TypeSample& sample) const;
  std::vector<float> RelationFeatures(const data::TableCorpus& corpus,
                                      const data::RelationSample& s) const;

  void TrainMlp(Mlp* mlp, const std::vector<std::vector<float>>& features,
                const std::vector<std::vector<int>>& labels,
                const std::vector<int>& train_ids, int num_labels,
                bool multi_label, util::Rng& rng);

  FeatureMlpConfig config_;
  ColumnFeatureExtractor extractor_;

  bool type_multi_label_ = false;
  int num_type_labels_ = 0;
  int num_relation_labels_ = 0;
  std::vector<std::vector<float>> type_features_;
  std::vector<std::vector<float>> relation_features_;
  std::unique_ptr<Mlp> type_mlp_;
  std::unique_ptr<Mlp> relation_mlp_;
};

/// Factories for the two published systems.
std::unique_ptr<TableInterpreter> MakeSherlock(uint64_t seed);
std::unique_ptr<TableInterpreter> MakeSato(uint64_t seed);

}  // namespace explainti::baselines

#endif  // EXPLAINTI_BASELINES_FEATURE_MLP_H_
