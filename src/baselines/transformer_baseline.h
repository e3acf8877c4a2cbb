#ifndef EXPLAINTI_BASELINES_TRANSFORMER_BASELINE_H_
#define EXPLAINTI_BASELINES_TRANSFORMER_BASELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/table_interpreter.h"
#include "core/task_data.h"
#include "nn/encoder.h"
#include "nn/heads.h"
#include "text/serializer.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace explainti::baselines {

/// Shared configuration for the transformer-based baselines.
struct TransformerBaselineConfig {
  std::string base_model = "bert";
  int epochs = 10;
  float learning_rate = 1e-3f;
  int batch_size = 16;
  int max_seq_len = 40;
  int pretrain_epochs = 2;
  uint64_t seed = 31;
};

/// Base class for TaBERT / TURL / Doduo / TCN / SelfExplain: a pre-trained
/// mini transformer encoder fine-tuned with a classification head per
/// task. Subclasses customise the serialisation, an optional attention
/// mask (TURL), optional constant context features concatenated to the
/// [CLS] embedding (TCN), and optional auxiliary losses plus extra trained
/// modules (SelfExplain).
class TransformerBaseline : public TableInterpreter {
 public:
  TransformerBaseline(std::string name, TransformerBaselineConfig config);

  void Fit(const data::TableCorpus& corpus) override;
  bool HasTask(core::TaskKind kind) const override;
  std::vector<int> Predict(core::TaskKind kind, int sample_id) const override;

  // -- Post-hoc explainability access (Table IV baselines) ----------------

  const core::TaskData& task_data(core::TaskKind kind) const;

  /// Per-token saliency scores |grad . emb|_2 with respect to the
  /// highest-probability class (Simonyan et al. saliency maps).
  std::vector<float> TokenSaliency(core::TaskKind kind, int sample_id) const;

  /// [CLS] embedding of a sample (eval-mode forward).
  std::vector<float> ClsEmbedding(core::TaskKind kind, int sample_id) const;

  /// Per-label sigma outputs for a sample.
  std::vector<float> Probabilities(core::TaskKind kind, int sample_id) const;

  const TransformerBaselineConfig& config() const { return config_; }

 protected:
  // -- Subclass hooks -------------------------------------------------------

  /// Serialisation for the type task; default is the paper's S(c).
  virtual text::EncodedSequence SerializeType(
      const data::TableCorpus& corpus, const data::TypeSample& sample) const;

  /// Serialisation for the relation task; default is S(c_i, c_j).
  virtual text::EncodedSequence SerializeRelation(
      const data::TableCorpus& corpus,
      const data::RelationSample& sample) const;

  virtual bool SupportsRelation() const { return true; }

  /// Called once after MLM pre-training (e.g. TCN builds its context
  /// store here).
  virtual void PrepareContext(const data::TableCorpus& /*corpus*/) {}

  /// Number of constant context features appended to [CLS]; 0 = none.
  virtual int ContextDim(core::TaskKind /*kind*/) const { return 0; }

  /// The constant context feature vector for one sample (size must equal
  /// ContextDim).
  virtual std::vector<float> ContextFeatures(core::TaskKind /*kind*/,
                                             int /*sample_id*/) const {
    return {};
  }

  /// Optional [L, L] additive attention mask (TURL's visibility matrix).
  virtual tensor::Tensor AttentionMask(
      core::TaskKind /*kind*/, const core::TaskSample& /*sample*/) const {
    return tensor::Tensor();
  }

  /// Optional auxiliary loss added to the task loss (SelfExplain's concept
  /// losses). May return an undefined tensor for "none".
  virtual tensor::Tensor ExtraLoss(core::TaskKind /*kind*/,
                                   const core::TaskSample& /*sample*/,
                                   const tensor::Tensor& /*embeddings*/,
                                   const tensor::Tensor& /*cls*/,
                                   const tensor::Tensor& /*final_logits*/,
                                   util::Rng& /*rng*/) const {
    return tensor::Tensor();
  }

  /// Extra trainable parameters owned by the subclass.
  virtual std::vector<tensor::Tensor> ExtraParameters() const { return {}; }

  /// Called by Fit before serialisation so subclasses can size their
  /// modules; `d_model` is the encoder width.
  virtual void OnModelBuilt(const data::TableCorpus& /*corpus*/,
                            int64_t /*d_model*/, util::Rng& /*rng*/) {}

  // -- Shared state access for subclasses ----------------------------------

  const text::SequenceSerializer& serializer() const { return *serializer_; }
  const text::Tokenizer& tokenizer() const { return *tokenizer_; }
  int max_seq_len() const { return config_.max_seq_len; }
  const nn::TransformerEncoder& encoder() const { return *encoder_; }

  /// Encoder forward for one sample (applies the subclass mask).
  tensor::Tensor Encode(core::TaskKind kind, int sample_id, bool training,
                        util::Rng& rng) const;

 private:
  struct TaskState {
    core::TaskData data;
    std::unique_ptr<nn::ClassifierHead> head;
  };

  const TaskState& State(core::TaskKind kind) const;
  TaskState& State(core::TaskKind kind);

  tensor::Tensor ForwardLogits(core::TaskKind kind, int sample_id,
                               bool training, util::Rng& rng,
                               tensor::Tensor* embeddings_out,
                               tensor::Tensor* cls_out) const;

  std::vector<int> DecodeLabels(core::TaskKind kind,
                                const std::vector<float>& logits) const;

  /// Seed for inference-time RNG state, derived per sample from the config
  /// seed so that Predict/Probabilities/TokenSaliency are deterministic
  /// per sample and independent of call order (eval-mode forwards never
  /// actually draw from it — it only pins down the contract), and so that
  /// concurrent inference calls share no mutable RNG state.
  uint64_t InferenceSeed(int sample_id) const {
    return config_.seed * 2654435761ULL + 999 +
           static_cast<uint64_t>(sample_id);
  }

  TransformerBaselineConfig config_;
  std::shared_ptr<text::Vocab> vocab_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  std::unique_ptr<text::SequenceSerializer> serializer_;
  std::unique_ptr<nn::TransformerEncoder> encoder_;
  std::optional<TaskState> type_state_;
  std::optional<TaskState> relation_state_;
};

}  // namespace explainti::baselines

#endif  // EXPLAINTI_BASELINES_TRANSFORMER_BASELINE_H_
