#include "baselines/transformer_baseline.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "nn/pretrain.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace explainti::baselines {

TransformerBaseline::TransformerBaseline(std::string name,
                                         TransformerBaselineConfig config)
    : TableInterpreter(std::move(name)), config_(config) {}

text::EncodedSequence TransformerBaseline::SerializeType(
    const data::TableCorpus& corpus, const data::TypeSample& sample) const {
  return serializer_->SerializeColumn(corpus.ColumnTextOf(sample));
}

text::EncodedSequence TransformerBaseline::SerializeRelation(
    const data::TableCorpus& corpus, const data::RelationSample& s) const {
  return serializer_->SerializePair(
      corpus.ColumnTextOf(s.table_index, s.left_column),
      corpus.ColumnTextOf(s.table_index, s.right_column));
}

void TransformerBaseline::Fit(const data::TableCorpus& corpus) {
  corpus_ = &corpus;
  util::Rng init_rng(config_.seed);

  // -- Vocabulary from the training tables. ------------------------------
  std::unordered_map<std::string, int64_t> counts;
  auto count_text = [&counts](const std::string& textual) {
    for (const std::string& token : text::BasicTokenize(textual)) {
      ++counts[token];
    }
  };
  for (const char* marker : {"title", "header", "cell", "row"}) {
    counts[marker] += 1000;
  }
  for (size_t t = 0; t < corpus.tables.size(); ++t) {
    if (corpus.table_split[t] != data::SplitPart::kTrain) continue;
    const data::Table& table = corpus.tables[t];
    count_text(table.title);
    for (const data::Column& column : table.columns) {
      count_text(column.header);
      for (const std::string& cell : column.cells) count_text(cell);
    }
  }
  vocab_ = std::make_shared<text::Vocab>(
      text::BuildVocab(counts, /*max_size=*/4000, /*min_count=*/2));
  tokenizer_ = text::MakeTokenizer(config_.base_model, vocab_);
  serializer_ = std::make_unique<text::SequenceSerializer>(
      tokenizer_.get(), config_.max_seq_len);

  // -- Encoder. -------------------------------------------------------------
  nn::TransformerConfig encoder_config = nn::TransformerConfig::ForBaseModel(
      config_.base_model, vocab_->size());
  encoder_config.max_len = config_.max_seq_len;
  encoder_ =
      std::make_unique<nn::TransformerEncoder>(encoder_config, init_rng);
  const int64_t d = encoder_config.d_model;
  OnModelBuilt(corpus, d, init_rng);

  // -- Serialise tasks through the subclass hooks. -------------------------
  type_state_.emplace();
  type_state_->data = core::BuildTypeTaskData(corpus, *serializer_);
  for (size_t i = 0; i < corpus.type_samples.size(); ++i) {
    type_state_->data.samples[i].seq =
        SerializeType(corpus, corpus.type_samples[i]);
  }
  type_state_->head = std::make_unique<nn::ClassifierHead>(
      d + ContextDim(core::TaskKind::kType), type_state_->data.num_labels,
      init_rng);

  if (SupportsRelation() && !corpus.relation_samples.empty()) {
    relation_state_.emplace();
    relation_state_->data = core::BuildRelationTaskData(corpus, *serializer_);
    for (size_t i = 0; i < corpus.relation_samples.size(); ++i) {
      relation_state_->data.samples[i].seq =
          SerializeRelation(corpus, corpus.relation_samples[i]);
    }
    relation_state_->head = std::make_unique<nn::ClassifierHead>(
        d + ContextDim(core::TaskKind::kRelation),
        relation_state_->data.num_labels, init_rng);
  }

  // -- MLM pre-training on training sequences. ------------------------------
  {
    std::vector<std::vector<int>> id_seqs;
    std::vector<std::vector<int>> segment_seqs;
    for (const TaskState* state :
         {type_state_ ? &*type_state_ : nullptr,
          relation_state_ ? &*relation_state_ : nullptr}) {
      if (state == nullptr) continue;
      for (int id : state->data.train_ids) {
        id_seqs.push_back(state->data.samples[static_cast<size_t>(id)].seq.ids);
        segment_seqs.push_back(
            state->data.samples[static_cast<size_t>(id)].seq.segments);
      }
    }
    nn::MlmPretrainOptions options;
    options.epochs = config_.pretrain_epochs;
    options.learning_rate = config_.pretrain_learning_rate;
    options.dynamic_masking = config_.base_model == "roberta";
    options.seed = config_.seed + 1;
    nn::PretrainMlm(encoder_.get(), id_seqs, segment_seqs, options);
  }

  PrepareContext(corpus);

  // -- Fine-tuning (multi-task, epoch switching like Doduo). -----------------
  std::vector<tensor::Tensor> params = encoder_->Parameters();
  for (const TaskState* state :
       {type_state_ ? &*type_state_ : nullptr,
        relation_state_ ? &*relation_state_ : nullptr}) {
    if (state == nullptr) continue;
    const auto head_params = state->head->Parameters();
    params.insert(params.end(), head_params.begin(), head_params.end());
  }
  const auto extra = ExtraParameters();
  params.insert(params.end(), extra.begin(), extra.end());

  tensor::AdamWOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  tensor::AdamW optimizer(params, adam_options);

  std::vector<core::TaskKind> tasks = {core::TaskKind::kType};
  if (relation_state_) tasks.push_back(core::TaskKind::kRelation);
  int64_t steps_per_epoch = 0;
  for (core::TaskKind kind : tasks) {
    const int64_t n =
        static_cast<int64_t>(State(kind).data.train_ids.size());
    steps_per_epoch += (n + config_.batch_size - 1) / config_.batch_size;
  }
  tensor::LinearSchedule schedule(
      config_.learning_rate, steps_per_epoch * config_.epochs,
      /*warmup_steps=*/steps_per_epoch * config_.epochs / 10);

  util::Rng train_rng(config_.seed + 2);
  util::Rng order_rng(config_.seed + 3);
  int64_t step = 0;

  float best_valid = -1.0f;
  std::vector<std::vector<float>> best_params;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (core::TaskKind kind : tasks) {
      TaskState& state = State(kind);
      std::vector<int> order = state.data.train_ids;
      order_rng.Shuffle(order);
      optimizer.ZeroGrad();
      int in_batch = 0;
      for (size_t i = 0; i < order.size(); ++i) {
        const int id = order[i];
        const core::TaskSample& sample =
            state.data.samples[static_cast<size_t>(id)];
        tensor::Tensor embeddings;
        tensor::Tensor cls;
        tensor::Tensor logits = ForwardLogits(kind, id, /*training=*/true,
                                              train_rng, &embeddings, &cls);
        tensor::Tensor loss;
        if (state.data.multi_label) {
          std::vector<float> y(static_cast<size_t>(state.data.num_labels),
                               0.0f);
          for (int label : sample.labels) y[static_cast<size_t>(label)] = 1.0f;
          loss = tensor::BceWithLogitsLoss(logits, y);
        } else {
          loss = tensor::CrossEntropyLoss(logits, sample.labels[0]);
        }
        tensor::Tensor extra_loss =
            ExtraLoss(kind, sample, embeddings, cls, logits, train_rng);
        if (extra_loss.defined()) loss = tensor::Add(loss, extra_loss);
        loss = tensor::Scale(loss,
                             1.0f / static_cast<float>(config_.batch_size));
        loss.Backward();
        ++in_batch;
        if (in_batch == config_.batch_size || i + 1 == order.size()) {
          optimizer.Step(schedule.LearningRate(step++));
          optimizer.ZeroGrad();
          in_batch = 0;
        }
      }
    }

    float valid = 0.0f;
    for (core::TaskKind kind : tasks) {
      valid += static_cast<float>(
          EvaluateInterpreter(*this, corpus, kind, data::SplitPart::kValid)
              .weighted);
    }
    valid /= static_cast<float>(tasks.size());
    if (valid > best_valid) {
      best_valid = valid;
      best_params.clear();
      best_params.reserve(params.size());
      for (const tensor::Tensor& p : params) best_params.push_back(p.ToVector());
    }
  }

  if (!best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      std::copy(best_params[i].begin(), best_params[i].end(),
                params[i].data());
    }
  }
}

const TransformerBaseline::TaskState& TransformerBaseline::State(
    core::TaskKind kind) const {
  if (kind == core::TaskKind::kType) {
    CHECK(type_state_.has_value());
    return *type_state_;
  }
  CHECK(relation_state_.has_value());
  return *relation_state_;
}

TransformerBaseline::TaskState& TransformerBaseline::State(
    core::TaskKind kind) {
  return const_cast<TaskState&>(
      static_cast<const TransformerBaseline*>(this)->State(kind));
}

const core::TaskData& TransformerBaseline::task_data(
    core::TaskKind kind) const {
  return State(kind).data;
}

bool TransformerBaseline::HasTask(core::TaskKind kind) const {
  return kind == core::TaskKind::kType ? type_state_.has_value()
                                       : relation_state_.has_value();
}

tensor::Tensor TransformerBaseline::Encode(core::TaskKind kind, int sample_id,
                                           bool training,
                                           util::Rng& rng) const {
  const TaskState& state = State(kind);
  const core::TaskSample& sample =
      state.data.samples[static_cast<size_t>(sample_id)];
  return encoder_->Forward(
      sample.seq.ids, sample.seq.segments,
      training ? nn::ExecContext::Train(rng) : nn::ExecContext::Eval(&rng),
      AttentionMask(kind, sample));
}

tensor::Tensor TransformerBaseline::ForwardLogits(
    core::TaskKind kind, int sample_id, bool training, util::Rng& rng,
    tensor::Tensor* embeddings_out, tensor::Tensor* cls_out) const {
  const TaskState& state = State(kind);
  tensor::Tensor embeddings = Encode(kind, sample_id, training, rng);
  tensor::Tensor cls = tensor::Row(embeddings, 0);
  tensor::Tensor features = cls;
  if (ContextDim(kind) > 0) {
    const std::vector<float> context = ContextFeatures(kind, sample_id);
    CHECK_EQ(static_cast<int>(context.size()), ContextDim(kind));
    features = tensor::Concat(
        cls, tensor::Tensor::FromVector(
                 {static_cast<int64_t>(context.size())}, context));
  }
  if (embeddings_out != nullptr) *embeddings_out = embeddings;
  if (cls_out != nullptr) *cls_out = cls;
  return state.head->Forward(features);
}

std::vector<int> TransformerBaseline::DecodeLabels(
    core::TaskKind kind, const std::vector<float>& logits) const {
  const TaskState& state = State(kind);
  std::vector<int> out;
  if (state.data.multi_label) {
    for (size_t i = 0; i < logits.size(); ++i) {
      if (logits[i] >= 0.0f) out.push_back(static_cast<int>(i));
    }
    if (out.empty()) {
      out.push_back(static_cast<int>(
          std::max_element(logits.begin(), logits.end()) - logits.begin()));
    }
  } else {
    out.push_back(static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin()));
  }
  return out;
}

std::vector<int> TransformerBaseline::Predict(core::TaskKind kind,
                                              int sample_id) const {
  util::Rng rng(InferenceSeed(sample_id));
  tensor::Tensor logits = ForwardLogits(kind, sample_id, /*training=*/false,
                                        rng, nullptr, nullptr);
  return DecodeLabels(kind, logits.ToVector());
}

std::vector<float> TransformerBaseline::TokenSaliency(core::TaskKind kind,
                                                      int sample_id) const {
  tensor::Tensor embeddings;
  tensor::Tensor cls;
  util::Rng rng(InferenceSeed(sample_id));
  tensor::Tensor logits = ForwardLogits(kind, sample_id, /*training=*/false,
                                        rng, &embeddings, &cls);
  const std::vector<float> values = logits.ToVector();
  const int target = static_cast<int>(
      std::max_element(values.begin(), values.end()) - values.begin());
  // Backward from the winning logit.
  std::vector<float> onehot(values.size(), 0.0f);
  onehot[static_cast<size_t>(target)] = 1.0f;
  tensor::Tensor picked = tensor::Sum(tensor::Mul(
      logits, tensor::Tensor::FromVector(
                  {static_cast<int64_t>(onehot.size())}, onehot)));
  picked.Backward();

  const int64_t len = embeddings.dim(0);
  const int64_t d = embeddings.dim(1);
  std::vector<float> scores(static_cast<size_t>(len), 0.0f);
  const float* grad = embeddings.grad();
  const float* value = embeddings.data();
  for (int64_t i = 0; i < len; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double gx = static_cast<double>(grad[i * d + j]) *
                        value[i * d + j];
      acc += gx * gx;
    }
    scores[static_cast<size_t>(i)] = static_cast<float>(std::sqrt(acc));
  }
  return scores;
}

std::vector<float> TransformerBaseline::ClsEmbedding(core::TaskKind kind,
                                                     int sample_id) const {
  util::Rng rng(InferenceSeed(sample_id));
  tensor::Tensor embeddings =
      Encode(kind, sample_id, /*training=*/false, rng);
  return tensor::Row(embeddings, 0).ToVector();
}

std::vector<float> TransformerBaseline::Probabilities(core::TaskKind kind,
                                                      int sample_id) const {
  util::Rng rng(InferenceSeed(sample_id));
  tensor::Tensor logits = ForwardLogits(kind, sample_id, /*training=*/false,
                                        rng, nullptr, nullptr);
  return State(kind).data.multi_label
             ? tensor::SigmoidValues(logits.ToVector())
             : tensor::SoftmaxValues(logits.ToVector());
}

}  // namespace explainti::baselines
