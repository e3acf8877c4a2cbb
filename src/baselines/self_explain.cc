#include "baselines/self_explain.h"

#include <algorithm>

#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace explainti::baselines {

SelfExplain::SelfExplain(TransformerBaselineConfig config, float alpha,
                         float beta, int chunk_size, int top_k)
    : TransformerBaseline("SelfExplain", std::move(config)),
      alpha_(alpha),
      beta_(beta),
      chunk_size_(chunk_size),
      top_k_(top_k) {}

void SelfExplain::OnModelBuilt(const data::TableCorpus& corpus,
                               int64_t d_model, util::Rng& rng) {
  const int64_t c_type = static_cast<int64_t>(corpus.type_label_names.size());
  type_heads_.local =
      std::make_unique<nn::ClassifierHead>(d_model, c_type, rng);
  type_heads_.global =
      std::make_unique<nn::ClassifierHead>(d_model, c_type, rng);
  if (!corpus.relation_samples.empty()) {
    const int64_t c_rel =
        static_cast<int64_t>(corpus.relation_label_names.size());
    relation_heads_.local =
        std::make_unique<nn::ClassifierHead>(d_model, c_rel, rng);
    relation_heads_.global =
        std::make_unique<nn::ClassifierHead>(d_model, c_rel, rng);
  }
}

void SelfExplain::PrepareContext(const data::TableCorpus& /*corpus*/) {
  // Static global store: built once from post-pre-training embeddings and
  // never refreshed (see the class comment).
  for (core::TaskKind kind :
       {core::TaskKind::kType, core::TaskKind::kRelation}) {
    if (!HasTask(kind)) continue;
    StaticStore& store =
        kind == core::TaskKind::kType ? type_store_ : relation_store_;
    const core::TaskData& task = task_data(kind);
    store.ids = task.train_ids;
    store.embeddings.assign(task.samples.size(), {});
    for (int id : task.train_ids) {
      std::vector<float> e = ClsEmbedding(kind, id);
      store.index.Add(id, e);
      store.embeddings[static_cast<size_t>(id)] = std::move(e);
    }
  }
}

std::vector<std::pair<int, int>> SelfExplain::Chunks(
    const core::TaskSample& sample) const {
  std::vector<std::pair<int, int>> chunks;
  const int len = static_cast<int>(sample.seq.ids.size());
  for (int start = 1; start < len - 1; start += chunk_size_) {
    const int end = std::min(start + chunk_size_, len - 1);
    if (end > start) chunks.emplace_back(start, end);
  }
  return chunks;
}

const SelfExplain::ConceptHeads& SelfExplain::HeadsOf(
    core::TaskKind kind) const {
  return kind == core::TaskKind::kType ? type_heads_ : relation_heads_;
}

const SelfExplain::StaticStore& SelfExplain::StoreOf(
    core::TaskKind kind) const {
  return kind == core::TaskKind::kType ? type_store_ : relation_store_;
}

tensor::Tensor SelfExplain::ExtraLoss(core::TaskKind kind,
                                      const core::TaskSample& sample,
                                      const tensor::Tensor& embeddings,
                                      const tensor::Tensor& cls,
                                      const tensor::Tensor& final_logits,
                                      util::Rng& /*rng*/) const {
  const core::TaskData& task = task_data(kind);
  const ConceptHeads& heads = HeadsOf(kind);
  tensor::Tensor total;

  // -- Local concept loss (LIL). ------------------------------------------
  const std::vector<std::pair<int, int>> chunks = Chunks(sample);
  if (!chunks.empty() && heads.local != nullptr) {
    std::vector<float> ref =
        task.multi_label ? tensor::SigmoidValues(final_logits.ToVector())
                         : tensor::SoftmaxValues(final_logits.ToVector());
    if (task.multi_label) tensor::NormalizeToDistribution(ref);
    std::vector<tensor::Tensor> s_probs;
    std::vector<float> kls;
    for (const auto& [start, end] : chunks) {
      tensor::Tensor pooled =
          tensor::MeanRows(tensor::SliceRows(embeddings, start, end));
      tensor::Tensor t_j = tensor::Sub(cls, pooled);
      tensor::Tensor logits_j = heads.local->Forward(t_j);
      tensor::Tensor s_j = task.multi_label ? tensor::SigmoidOp(logits_j)
                                            : tensor::Softmax(logits_j);
      std::vector<float> dist = s_j.ToVector();
      if (task.multi_label) tensor::NormalizeToDistribution(dist);
      kls.push_back(tensor::KlDivergence(dist, ref));
      s_probs.push_back(std::move(s_j));
    }
    float total_kl = 0.0f;
    for (float v : kls) total_kl += v;
    if (total_kl <= 0.0f) total_kl = 1.0f;
    tensor::Tensor mixed;
    for (size_t j = 0; j < s_probs.size(); ++j) {
      tensor::Tensor weighted = tensor::Scale(s_probs[j], kls[j] / total_kl);
      mixed = mixed.defined() ? tensor::Add(mixed, weighted) : weighted;
    }
    tensor::Tensor local_loss;
    if (task.multi_label) {
      std::vector<float> y(static_cast<size_t>(task.num_labels), 0.0f);
      for (int label : sample.labels) y[static_cast<size_t>(label)] = 1.0f;
      local_loss = tensor::BceFromProbs(mixed, y);
    } else {
      local_loss = tensor::NllFromProbs(mixed, sample.labels[0]);
    }
    total = tensor::Scale(local_loss, alpha_);
  }

  // -- Global interpretable layer loss (GIL). --------------------------------
  const StaticStore& store = StoreOf(kind);
  if (store.index.size() > 0 && heads.global != nullptr) {
    std::vector<ann::SearchResult> hits =
        store.index.Search(cls.ToVector(), top_k_ + 1);
    // Drop the self-hit during training.
    std::vector<const std::vector<float>*> retrieved;
    for (const ann::SearchResult& hit : hits) {
      if (static_cast<int>(hit.id) == sample.id &&
          task.IsTrainSample(sample.id)) {
        continue;
      }
      retrieved.push_back(&store.embeddings[static_cast<size_t>(hit.id)]);
      if (static_cast<int>(retrieved.size()) == top_k_) break;
    }
    if (!retrieved.empty()) {
      const int64_t d = cls.size();
      const int k = static_cast<int>(retrieved.size());
      std::vector<float> q(static_cast<size_t>(k) * d);
      for (int j = 0; j < k; ++j) {
        std::copy(retrieved[static_cast<size_t>(j)]->begin(),
                  retrieved[static_cast<size_t>(j)]->end(),
                  q.begin() + static_cast<int64_t>(j) * d);
      }
      tensor::Tensor q_matrix = tensor::Tensor::FromVector({k, d}, q);
      tensor::Tensor scores = tensor::MatMul(q_matrix, cls);
      tensor::Tensor weights = tensor::Softmax(scores);
      tensor::Tensor global_embedding = tensor::MatMul(weights, q_matrix);
      tensor::Tensor global_logits = heads.global->Forward(global_embedding);
      tensor::Tensor global_loss;
      if (task.multi_label) {
        std::vector<float> y(static_cast<size_t>(task.num_labels), 0.0f);
        for (int label : sample.labels) y[static_cast<size_t>(label)] = 1.0f;
        global_loss = tensor::BceWithLogitsLoss(global_logits, y);
      } else {
        global_loss =
            tensor::CrossEntropyLoss(global_logits, sample.labels[0]);
      }
      tensor::Tensor scaled = tensor::Scale(global_loss, beta_);
      total = total.defined() ? tensor::Add(total, scaled) : scaled;
    }
  }
  return total;
}

std::vector<tensor::Tensor> SelfExplain::ExtraParameters() const {
  std::vector<tensor::Tensor> params;
  for (const ConceptHeads* heads : {&type_heads_, &relation_heads_}) {
    for (const nn::ClassifierHead* head :
         {heads->local.get(), heads->global.get()}) {
      if (head == nullptr) continue;
      const auto p = head->Parameters();
      params.insert(params.end(), p.begin(), p.end());
    }
  }
  return params;
}

std::vector<std::string> SelfExplain::TopLocalChunks(core::TaskKind kind,
                                                     int sample_id,
                                                     int k) const {
  const core::TaskData& task = task_data(kind);
  const core::TaskSample& sample =
      task.samples[static_cast<size_t>(sample_id)];
  const ConceptHeads& heads = HeadsOf(kind);
  if (heads.local == nullptr) return {};

  util::Rng rng(1);
  tensor::Tensor embeddings =
      Encode(kind, sample_id, /*training=*/false, rng);
  tensor::Tensor cls = tensor::Row(embeddings, 0);
  std::vector<float> ref = Probabilities(kind, sample_id);
  if (task.multi_label) tensor::NormalizeToDistribution(ref);

  const std::vector<std::pair<int, int>> chunks = Chunks(sample);
  std::vector<std::pair<float, size_t>> ranked;
  for (size_t j = 0; j < chunks.size(); ++j) {
    tensor::Tensor pooled = tensor::MeanRows(
        tensor::SliceRows(embeddings, chunks[j].first, chunks[j].second));
    tensor::Tensor logits_j =
        heads.local->Forward(tensor::Sub(cls, pooled));
    std::vector<float> dist =
        task.multi_label ? tensor::SigmoidValues(logits_j.ToVector())
                         : tensor::SoftmaxValues(logits_j.ToVector());
    if (task.multi_label) tensor::NormalizeToDistribution(dist);
    ranked.emplace_back(tensor::KlDivergence(dist, ref), j);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  std::vector<std::string> out;
  for (size_t i = 0; i < ranked.size() && static_cast<int>(i) < k; ++i) {
    const auto& [start, end] = chunks[ranked[i].second];
    std::vector<std::string> words;
    for (int t = start; t < end; ++t) {
      const std::string& token = sample.seq.tokens[static_cast<size_t>(t)];
      if (!token.empty() && token[0] == '[') continue;
      if (util::StartsWith(token, "##") && !words.empty()) {
        words.back() += token.substr(2);
      } else {
        words.push_back(token);
      }
    }
    out.push_back(util::Join(words, " "));
  }
  return out;
}

std::vector<int> SelfExplain::TopGlobalSamples(core::TaskKind kind,
                                               int sample_id, int k) const {
  const StaticStore& store = StoreOf(kind);
  std::vector<int> out;
  if (store.index.size() == 0) return out;
  const std::vector<float> cls = ClsEmbedding(kind, sample_id);
  for (const ann::SearchResult& hit : store.index.Search(cls, k + 1)) {
    if (hit.id == sample_id &&
        task_data(kind).IsTrainSample(sample_id)) {
      continue;
    }
    out.push_back(static_cast<int>(hit.id));
    if (static_cast<int>(out.size()) == k) break;
  }
  return out;
}

std::unique_ptr<SelfExplain> MakeSelfExplain(TransformerBaselineConfig config) {
  return std::make_unique<SelfExplain>(std::move(config));
}

}  // namespace explainti::baselines
