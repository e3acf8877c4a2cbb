#include "core/explain_ti_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "core/checkpoint.h"
#include "core/inference_session.h"
#include "nn/pretrain.h"
#include "tensor/optimizer.h"
#include "tensor/tensor_ops.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace explainti::core {

namespace {

/// Embedding-store refresh period in epochs. The paper refreshes every 5
/// of its 40 epochs; scaled to this reproduction's ~10-epoch runs the
/// same refresh *fraction* is every 2 epochs (stale stores make SE feed
/// pre-fine-tuning embeddings to the classifier and hurt accuracy).
constexpr int kStoreRefreshEpochs = 2;
/// MLM pre-training learning rate.
constexpr float kPretrainLearningRate = 1e-3f;

/// Multi-hot target vector for a label set.
std::vector<float> MultiHot(const std::vector<int>& labels, int num_labels) {
  std::vector<float> y(static_cast<size_t>(num_labels), 0.0f);
  for (int label : labels) y[static_cast<size_t>(label)] = 1.0f;
  return y;
}

/// Copies every parameter's values, in `AllParameters()` order.
std::vector<std::vector<float>> SnapshotParams(
    const std::vector<tensor::Tensor>& params) {
  std::vector<std::vector<float>> snap;
  snap.reserve(params.size());
  for (const tensor::Tensor& p : params) snap.push_back(p.ToVector());
  return snap;
}

/// Writes `snap` back into `params`; the shapes must match.
void RestoreParams(const std::vector<std::vector<float>>& snap,
                   std::vector<tensor::Tensor>* params) {
  for (size_t i = 0; i < params->size(); ++i) {
    std::copy(snap[i].begin(), snap[i].end(), (*params)[i].data());
  }
}

/// True when `snap` holds one array per parameter, each of its size.
bool ShapesMatch(const std::vector<tensor::Tensor>& params,
                 const std::vector<std::vector<float>>& snap) {
  if (snap.size() != params.size()) return false;
  for (size_t i = 0; i < params.size(); ++i) {
    if (static_cast<int64_t>(snap[i].size()) != params[i].size()) {
      return false;
    }
  }
  return true;
}

/// Window text: tokens joined, merging "##" continuations, specials kept
/// out.
std::string WindowText(const std::vector<std::string>& tokens, int start,
                       int end) {
  std::vector<std::string> words;
  for (int i = start; i < end && i < static_cast<int>(tokens.size()); ++i) {
    const std::string& token = tokens[static_cast<size_t>(i)];
    if (!token.empty() && token[0] == '[') continue;
    if (util::StartsWith(token, "##") && !words.empty()) {
      words.back() += token.substr(2);
    } else {
      words.push_back(token);
    }
  }
  return util::Join(words, " ");
}

}  // namespace

namespace {

EmbeddingStore::Options StoreOptionsFor(const ExplainTiConfig& config) {
  EmbeddingStore::Options options;
  options.num_segments = std::max(1, config.store_segments);
  return options;
}

}  // namespace

ExplainTiModel::ExplainTiModel(const ExplainTiConfig& config,
                               const data::TableCorpus& corpus)
    : config_(config),
      type_store_(StoreOptionsFor(config)),
      relation_store_(StoreOptionsFor(config)) {
  // -- Vocabulary from the training tables only (no test leakage). -------
  std::unordered_map<std::string, int64_t> counts;
  auto count_text = [&counts](const std::string& text) {
    for (const std::string& token : text::BasicTokenize(text)) {
      ++counts[token];
    }
  };
  for (const char* marker : {"title", "header", "cell"}) {
    counts[marker] += 1000;  // Serialisation markers are always present.
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
  tokenizer_ = text::MakeTokenizer(config.base_model, vocab_);
  serializer_ = std::make_unique<text::SequenceSerializer>(
      tokenizer_.get(), config.max_seq_len, config.dedup_cells);

  // -- Encoder ------------------------------------------------------------
  nn::TransformerConfig encoder_config = nn::TransformerConfig::ForBaseModel(
      config.base_model, vocab_->size());
  encoder_config.max_len = config.max_seq_len;
  util::Rng init_rng(config.seed);
  encoder_ =
      std::make_unique<nn::TransformerEncoder>(encoder_config, init_rng);
  const int64_t d = encoder_config.d_model;

  // -- Tasks + heads ----------------------------------------------------------
  type_task_ = BuildTypeTaskData(corpus, *serializer_);
  const int64_t c_type = type_task_->num_labels;
  type_heads_.base = std::make_unique<nn::ClassifierHead>(d, c_type, init_rng);
  type_heads_.structural =
      std::make_unique<nn::ClassifierHead>(2 * d, c_type, init_rng);
  type_heads_.local = std::make_unique<nn::ClassifierHead>(d, c_type, init_rng);
  type_heads_.global =
      std::make_unique<nn::ClassifierHead>(d, c_type, init_rng);

  if (!corpus.relation_samples.empty()) {
    relation_task_ = BuildRelationTaskData(corpus, *serializer_);
    const int64_t c_rel = relation_task_->num_labels;
    relation_heads_.base =
        std::make_unique<nn::ClassifierHead>(d, c_rel, init_rng);
    relation_heads_.structural =
        std::make_unique<nn::ClassifierHead>(2 * d, c_rel, init_rng);
    relation_heads_.local =
        std::make_unique<nn::ClassifierHead>(d, c_rel, init_rng);
    relation_heads_.global =
        std::make_unique<nn::ClassifierHead>(d, c_rel, init_rng);
  }

  // -- Serving facade -----------------------------------------------------
  session_ = std::make_unique<InferenceSession>(*this);
}

ExplainTiModel::~ExplainTiModel() = default;

bool ExplainTiModel::HasTask(TaskKind kind) const {
  return kind == TaskKind::kType ? type_task_.has_value()
                                 : relation_task_.has_value();
}

const TaskData& ExplainTiModel::Task(TaskKind kind) const {
  CHECK(HasTask(kind)) << "task not available on this corpus";
  return kind == TaskKind::kType ? *type_task_ : *relation_task_;
}

const TaskData& ExplainTiModel::task_data(TaskKind kind) const {
  return Task(kind);
}

const ExplainTiModel::TaskHeads& ExplainTiModel::Heads(TaskKind kind) const {
  return kind == TaskKind::kType ? type_heads_ : relation_heads_;
}

EmbeddingStore& ExplainTiModel::Store(TaskKind kind) {
  return kind == TaskKind::kType ? type_store_ : relation_store_;
}

const EmbeddingStore& ExplainTiModel::Store(TaskKind kind) const {
  return kind == TaskKind::kType ? type_store_ : relation_store_;
}

std::vector<tensor::Tensor> ExplainTiModel::AllParameters() const {
  std::vector<tensor::Tensor> params = encoder_->Parameters();
  auto append = [&params](const nn::Module* module) {
    if (module == nullptr) return;
    const auto p = module->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  };
  for (const TaskHeads* heads : {&type_heads_, &relation_heads_}) {
    append(heads->base.get());
    append(heads->structural.get());
    append(heads->local.get());
    append(heads->global.get());
  }
  return params;
}

// ---------------------------------------------------------------------------
// Explanation-tail steps (shared with the session's compiled tail)
// ---------------------------------------------------------------------------

std::vector<graph::SampledNeighbor> ExplainTiModel::SelectNeighbors(
    const TaskData& task, int sample_id, const EmbeddingStore::View& store,
    util::Rng& rng) const {
  // Sample 2-hop neighbours, keeping only training samples (their
  // embeddings live in the store Q).
  std::vector<graph::SampledNeighbor> raw =
      task.graph.SampleNeighbors(sample_id, 4 * config_.sample_size, rng);
  std::vector<graph::SampledNeighbor> usable;
  for (const graph::SampledNeighbor& n : raw) {
    if (n.via != graph::BridgeKind::kSelf && store.Contains(n.sample_id)) {
      usable.push_back(n);
      if (static_cast<int>(usable.size()) == config_.sample_size) break;
    }
  }
  // With-replacement padding when fewer distinct neighbours exist.
  if (!usable.empty()) {
    size_t i = 0;
    while (static_cast<int>(usable.size()) < config_.sample_size) {
      usable.push_back(usable[i++ % usable.size()]);
    }
  }
  return usable;
}

std::vector<StructuralExplanation> ExplainTiModel::StructuralRecords(
    const TaskData& task, int sample_id,
    const std::vector<graph::SampledNeighbor>& usable,
    const float* attention) {
  std::vector<StructuralExplanation> records;
  if (usable.empty()) {
    StructuralExplanation self;
    self.neighbor_sample_id = sample_id;
    self.attention = 1.0f;
    self.via = graph::BridgeKind::kSelf;
    records.push_back(std::move(self));
    return records;
  }
  // Merge repeated neighbours for the explanation record.
  std::unordered_map<int, size_t> merged;
  for (size_t j = 0; j < usable.size(); ++j) {
    auto it = merged.find(usable[j].sample_id);
    if (it != merged.end()) {
      records[it->second].attention += attention[j];
      continue;
    }
    StructuralExplanation exp;
    exp.neighbor_sample_id = usable[j].sample_id;
    exp.attention = attention[j];
    exp.via = usable[j].via;
    exp.text = task.SampleText(exp.neighbor_sample_id);
    exp.labels =
        task.samples[static_cast<size_t>(exp.neighbor_sample_id)].labels;
    merged.emplace(exp.neighbor_sample_id, records.size());
    records.push_back(std::move(exp));
  }
  std::sort(records.begin(), records.end(),
            [](const StructuralExplanation& a, const StructuralExplanation& b) {
              return a.attention > b.attention;
            });
  return records;
}

std::vector<ann::SearchResult> ExplainTiModel::SearchGlobal(
    const TaskData& task, int sample_id, const EmbeddingStore::View& store,
    const std::vector<float>& cls) const {
  // A training sample would otherwise retrieve itself — vacuous as an
  // explanation and label leakage as a training signal.
  const int exclude = task.IsTrainSample(sample_id) ? sample_id : -1;
  return store.Search(cls, config_.top_k, exclude);
}

void ExplainTiModel::UnitRow(const EmbeddingStore::EmbeddingRef& e,
                             float* out) {
  double norm_sq = 0.0;
  for (float v : e) norm_sq += static_cast<double>(v) * v;
  const float inv =
      norm_sq > 1e-24 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 0.0f;
  for (int64_t i = 0; i < e.size(); ++i) out[i] = e[i] * inv;
}

std::vector<GlobalExplanation> ExplainTiModel::GlobalRecords(
    const TaskData& task, const std::vector<ann::SearchResult>& hits,
    const float* influence) {
  std::vector<GlobalExplanation> records;
  for (size_t j = 0; j < hits.size(); ++j) {
    GlobalExplanation exp;
    exp.train_sample_id = static_cast<int>(hits[j].id);
    exp.influence = influence[j];
    exp.text = task.SampleText(exp.train_sample_id);
    exp.labels = task.samples[static_cast<size_t>(exp.train_sample_id)].labels;
    records.push_back(std::move(exp));
  }
  std::sort(records.begin(), records.end(),
            [](const GlobalExplanation& a, const GlobalExplanation& b) {
              return a.influence > b.influence;
            });
  return records;
}

ExplainTiModel::LocalWindows ExplainTiModel::WindowsFor(
    TaskKind kind, const TaskSample& sample) const {
  // Windows of width k over [begin, end): one window when the span is
  // no wider than k, none when it is empty.
  const int k = config_.window_size;
  auto slide = [k](int begin, int end, std::vector<std::pair<int, int>>* ws) {
    if (end - begin <= k) {
      if (end > begin) ws->emplace_back(begin, end);
    } else {
      for (int j = begin; j + k <= end; ++j) ws->emplace_back(j, j + k);
    }
  };
  // Content spans skip [CLS] and the trailing [SEP] (and, for a relation
  // pair, the [SEP] between its two columns).
  const int len = static_cast<int>(sample.seq.ids.size());
  LocalWindows windows;
  if (kind == TaskKind::kType) {
    slide(1, len - 1, &windows.left);
  } else {
    slide(1, sample.seq.sep_pos, &windows.left);
    slide(sample.seq.sep_pos + 1, len - 1, &windows.right);
    windows.paired = true;
  }
  return windows;
}

std::vector<float> ExplainTiModel::Relevances(std::vector<float> kls) {
  float total_kl = 0.0f;
  for (float v : kls) total_kl += v;
  if (total_kl <= 0.0f) total_kl = 1.0f;
  for (float& v : kls) v = v / total_kl;
  return kls;
}

std::vector<LocalExplanation> ExplainTiModel::LocalRecords(
    const TaskSample& sample, const LocalWindows& windows,
    const std::vector<float>& relevance) {
  std::vector<LocalExplanation> records;
  for (size_t j = 0; j < windows.size(); ++j) {
    LocalExplanation exp;
    std::tie(exp.window_start, exp.window_end) =
        windows.left[windows.LeftOf(j)];
    if (windows.paired) {
      std::tie(exp.window_start2, exp.window_end2) =
          windows.right[windows.RightOf(j)];
    }
    exp.relevance = relevance[j];
    records.push_back(std::move(exp));
  }
  std::sort(records.begin(), records.end(),
            [](const LocalExplanation& a, const LocalExplanation& b) {
              return a.relevance > b.relevance;
            });
  for (LocalExplanation& exp : records) {
    exp.text = WindowText(sample.seq.tokens, exp.window_start, exp.window_end);
    if (exp.window_start2 >= 0) {
      const std::string right =
          WindowText(sample.seq.tokens, exp.window_start2, exp.window_end2);
      if (!right.empty()) exp.text += " | " + right;
    }
  }
  return records;
}

// ---------------------------------------------------------------------------
// Forward
// ---------------------------------------------------------------------------

ExplainTiModel::Forward ExplainTiModel::RunForward(
    TaskKind kind, int sample_id, const nn::ExecContext& ctx, bool with_local,
    bool with_global) const {
  CHECK(ctx.rng != nullptr) << "RunForward requires an RNG (dropout and SE "
                               "neighbour sampling draw from it)";
  const TaskData& task = Task(kind);
  CHECK(sample_id >= 0 &&
        sample_id < static_cast<int>(task.samples.size()));
  const TaskSample& sample = task.samples[static_cast<size_t>(sample_id)];
  const TaskHeads& heads = Heads(kind);
  // Pin ONE store generation for the whole forward pass: a concurrent
  // RefreshStores/RebuildStore publishes a new snapshot without touching
  // this view, so SE/GE evidence within one response is never mixed
  // across store generations.
  const EmbeddingStore::View store = Store(kind).view();

  Forward fwd;
  fwd.evidence.store_empty = store.size() == 0;
  const tensor::Tensor embeddings =
      encoder_->Forward(sample.seq.ids, sample.seq.segments, ctx);
  const tensor::Tensor cls = tensor::Row(embeddings, 0);
  const int64_t d = cls.size();

  // -- Structural Explanations (Algorithm 4) -----------------------------
  if (config_.use_structural && store.size() > 0) {
    const std::vector<graph::SampledNeighbor> usable =
        SelectNeighbors(task, sample_id, store, *ctx.rng);
    tensor::Tensor attention;
    tensor::Tensor contextual;
    if (usable.empty()) {
      // Degenerate: no in-store neighbours; fall back to the sample's own
      // embedding so E_s carries no extra information.
      contextual = cls.Detach();
    } else {
      const int r = static_cast<int>(usable.size());
      std::vector<float> nbr_data(static_cast<size_t>(r) * d);
      for (int j = 0; j < r; ++j) {
        const EmbeddingStore::EmbeddingRef e =
            store.Embedding(usable[static_cast<size_t>(j)].sample_id);
        std::copy(e.begin(), e.end(),
                  nbr_data.begin() + static_cast<int64_t>(j) * d);
      }
      tensor::Tensor neighbors = tensor::Tensor::FromVector({r, d}, nbr_data);
      // AS = softmax(E_n . E_cls) (Eq. 5); E_s = sum AS_n E_n (Eq. 6).
      attention = tensor::Softmax(tensor::MatMul(neighbors, cls));
      contextual = tensor::MatMul(attention, neighbors);
    }
    fwd.final_logits =
        heads.structural->Forward(tensor::Concat(contextual, cls));
    fwd.evidence.neighbors = StructuralRecords(
        task, sample_id, usable,
        attention.defined() ? attention.data() : nullptr);
  } else {
    fwd.final_logits = heads.base->Forward(cls);
  }

  // -- Global Explanations (Algorithm 2) ----------------------------------
  if (with_global && store.size() > 0) {
    const std::vector<ann::SearchResult> hits =
        SearchGlobal(task, sample_id, store, cls.ToVector());
    if (!hits.empty()) {
      const int k = static_cast<int>(hits.size());
      // Raw and row-normalised copies of the retrieved embeddings.
      std::vector<float> raw(static_cast<size_t>(k) * d);
      std::vector<float> normalized(static_cast<size_t>(k) * d);
      for (int j = 0; j < k; ++j) {
        const EmbeddingStore::EmbeddingRef e =
            store.Embedding(static_cast<int>(hits[static_cast<size_t>(j)].id));
        std::copy(e.begin(), e.end(),
                  raw.begin() + static_cast<int64_t>(j) * d);
        UnitRow(e, normalized.data() + static_cast<int64_t>(j) * d);
      }
      tensor::Tensor q_raw = tensor::Tensor::FromVector({k, d}, raw);
      tensor::Tensor q_norm = tensor::Tensor::FromVector({k, d}, normalized);
      // IS = softmax(cos(E_cls, q)) (Eq. 4), differentiable through E_cls.
      tensor::Tensor cls_norm = tensor::L2Normalize(cls);
      tensor::Tensor influence =
          tensor::Softmax(tensor::MatMul(q_norm, cls_norm));
      fwd.global_logits =
          heads.global->Forward(tensor::MatMul(influence, q_raw));
      fwd.evidence.retrieved = GlobalRecords(task, hits, influence.data());
    }
  }

  // -- Local Explanations (Algorithm 1) ------------------------------------
  const LocalWindows windows =
      with_local ? WindowsFor(kind, sample) : LocalWindows();
  if (windows.size() > 0) {
    // Reference distribution: the model's own prediction.
    std::vector<float> ref =
        Probabilities(kind, fwd.final_logits.ToVector());
    if (task.multi_label) tensor::NormalizeToDistribution(ref);
    std::vector<tensor::Tensor> s_probs;
    std::vector<float> kls;
    s_probs.reserve(windows.size());
    kls.reserve(windows.size());
    for (size_t j = 0; j < windows.size(); ++j) {
      const auto [start1, end1] = windows.left[windows.LeftOf(j)];
      tensor::Tensor pooled =
          tensor::MeanRows(tensor::SliceRows(embeddings, start1, end1));
      if (windows.paired) {
        const auto [start2, end2] = windows.right[windows.RightOf(j)];
        tensor::Tensor pooled2 =
            tensor::MeanRows(tensor::SliceRows(embeddings, start2, end2));
        pooled = tensor::Scale(tensor::Add(pooled, pooled2), 0.5f);
      }
      // t_j is "the representation of the input without the concept's
      // contribution" (Algorithm 1): occluding the window from the
      // sample representation, so that a high KL shift marks an
      // important window.
      tensor::Tensor t_j = tensor::Sub(cls, pooled);
      tensor::Tensor logits_j = heads.local->Forward(t_j);
      tensor::Tensor s_j = task.multi_label ? tensor::SigmoidOp(logits_j)
                                            : tensor::Softmax(logits_j);
      // KL(s_j, logits) on detached values (Eq. 3).
      std::vector<float> s_dist = s_j.ToVector();
      if (task.multi_label) tensor::NormalizeToDistribution(s_dist);
      kls.push_back(tensor::KlDivergence(s_dist, ref));
      s_probs.push_back(std::move(s_j));
    }
    const std::vector<float> relevance = Relevances(std::move(kls));
    for (size_t j = 0; j < windows.size(); ++j) {
      tensor::Tensor weighted = tensor::Scale(s_probs[j], relevance[j]);
      fwd.local_probs = fwd.local_probs.defined()
                            ? tensor::Add(fwd.local_probs, weighted)
                            : weighted;
    }
    fwd.evidence.windows = LocalRecords(sample, windows, relevance);
  }

  return fwd;
}

// ---------------------------------------------------------------------------
// Loss (Eq. 11)
// ---------------------------------------------------------------------------

tensor::Tensor ExplainTiModel::ComputeLoss(TaskKind kind,
                                           const TaskSample& sample,
                                           const Forward& forward) const {
  const TaskData& task = Task(kind);
  tensor::Tensor loss;
  if (task.multi_label) {
    const std::vector<float> y = MultiHot(sample.labels, task.num_labels);
    loss = tensor::BceWithLogitsLoss(forward.final_logits, y);
    if (forward.local_probs.defined()) {
      loss = tensor::Add(
          loss, tensor::Scale(tensor::BceFromProbs(forward.local_probs, y),
                              config_.alpha));
    }
    if (forward.global_logits.defined()) {
      loss = tensor::Add(
          loss,
          tensor::Scale(tensor::BceWithLogitsLoss(forward.global_logits, y),
                        config_.beta));
    }
  } else {
    const int y0 = sample.labels[0];
    loss = tensor::CrossEntropyLoss(forward.final_logits, y0);
    if (forward.local_probs.defined()) {
      loss = tensor::Add(
          loss, tensor::Scale(tensor::NllFromProbs(forward.local_probs, y0),
                              config_.alpha));
    }
    if (forward.global_logits.defined()) {
      loss = tensor::Add(
          loss,
          tensor::Scale(tensor::CrossEntropyLoss(forward.global_logits, y0),
                        config_.beta));
    }
  }
  return loss;
}

// ---------------------------------------------------------------------------
// Embedding store maintenance
// ---------------------------------------------------------------------------

void ExplainTiModel::RebuildStore(TaskKind kind) {
  const TaskData& task = Task(kind);
  std::vector<int> ids(task.train_ids.begin(), task.train_ids.end());
  // No-grad encoding is bit-identical to the eval tape, so the store
  // contents match what the serial tape loop would have produced.
  Store(kind).Rebuild(ids, session_->EncodeBatch(kind, ids));
}

void ExplainTiModel::RefreshStores() {
  if (!config_.use_global && !config_.use_structural) return;
  RebuildStore(TaskKind::kType);
  if (relation_task_.has_value()) RebuildStore(TaskKind::kRelation);
}

util::Status ExplainTiModel::SaveStores(const std::string& dir) const {
  if (util::Status s = type_store_.Save(dir + "/type"); !s.ok()) return s;
  if (relation_task_.has_value()) {
    return relation_store_.Save(dir + "/relation");
  }
  return util::Status::OK();
}

util::Status ExplainTiModel::LoadStores(const std::string& dir) {
  const int64_t d = encoder_->config().d_model;
  const auto load_one = [&](TaskKind kind, EmbeddingStore& store,
                            const std::string& sub) -> util::Status {
    if (util::Status s = store.Load(dir + "/" + sub); !s.ok()) return s;
    const EmbeddingStore::View view = store.view();
    if (view.dim() != d) {
      return util::Status::InvalidArgument(
          "persisted " + sub + " store dim " + std::to_string(view.dim()) +
          " != model d_model " + std::to_string(d));
    }
    const int64_t num_samples =
        static_cast<int64_t>(Task(kind).samples.size());
    if (view.max_id() >= num_samples) {
      return util::Status::InvalidArgument(
          "persisted " + sub + " store id " + std::to_string(view.max_id()) +
          " beyond this corpus (" + std::to_string(num_samples) +
          " samples)");
    }
    return util::Status::OK();
  };
  if (util::Status s = load_one(TaskKind::kType, type_store_, "type");
      !s.ok()) {
    return s;
  }
  if (relation_task_.has_value()) {
    return load_one(TaskKind::kRelation, relation_store_, "relation");
  }
  return util::Status::OK();
}

void ExplainTiModel::RestoreStores() {
  if (!config_.use_global && !config_.use_structural) return;
  if (!config_.store_dir.empty()) {
    if (util::Status s = LoadStores(config_.store_dir); s.ok()) {
      LOG(INFO) << "embedding stores reopened from " << config_.store_dir;
      return;
    } else {
      LOG(WARNING) << "persisted embedding stores unusable ("
                   << s.ToString() << "); re-encoding the corpus in memory";
    }
  }
  RefreshStores();
}

// ---------------------------------------------------------------------------
// Fit (Algorithm 5)
// ---------------------------------------------------------------------------

FitStats ExplainTiModel::Fit() {
  FitStats stats;
  util::WallTimer timer;

  std::vector<TaskKind> tasks = {TaskKind::kType};
  if (relation_task_.has_value()) tasks.push_back(TaskKind::kRelation);

  std::vector<tensor::Tensor> params = AllParameters();
  auto params_finite = [&params]() {
    for (const tensor::Tensor& p : params) {
      const float* w = p.data();
      for (int64_t i = 0; i < p.size(); ++i) {
        if (!std::isfinite(w[i])) return false;
      }
    }
    return true;
  };

  // -- Step 0: attempt checkpoint resume. ---------------------------------
  // A loadable checkpoint already contains pre-trained + partially
  // fine-tuned weights, so a successful resume skips Step 1 entirely. A
  // missing checkpoint is normal; a corrupted one is logged and ignored —
  // training restarts from scratch rather than crashing or loading garbage
  // (the CRC32 footer catches torn/corrupted files before any field is
  // trusted).
  Checkpoint resume;
  int start_epoch = 0;
  std::vector<std::vector<float>> best_params;
  if (!config_.checkpoint_path.empty()) {
    util::StatusOr<Checkpoint> loaded =
        LoadCheckpoint(config_.checkpoint_path);
    if (loaded.ok() && ShapesMatch(params, loaded->params)) {
      resume = std::move(loaded).value();
      RestoreParams(resume.params, &params);
      start_epoch = resume.next_epoch;
      stats.best_valid_f1 = resume.best_valid_f1;
      stats.best_epoch = resume.best_epoch;
      best_params = std::move(resume.best_params);
      stats.resumed = true;
      LOG(INFO) << "resumed from " << config_.checkpoint_path
                << " at epoch " << start_epoch;
    } else if (loaded.ok()) {
      LOG(WARNING) << "checkpoint " << config_.checkpoint_path
                   << " has mismatched shapes; training from scratch";
    } else if (loaded.status().code() != util::StatusCode::kNotFound) {
      LOG(WARNING) << "checkpoint unusable, training from scratch: "
                   << loaded.status().ToString();
    }
  }

  // -- Step 1: MLM pre-training over all training sequences. --------------
  if (!stats.resumed) {
    std::vector<std::vector<int>> id_seqs;
    std::vector<std::vector<int>> segment_seqs;
    for (TaskKind kind : tasks) {
      const TaskData& task = Task(kind);
      for (int id : task.train_ids) {
        id_seqs.push_back(task.samples[static_cast<size_t>(id)].seq.ids);
        segment_seqs.push_back(
            task.samples[static_cast<size_t>(id)].seq.segments);
      }
    }
    nn::MlmPretrainOptions options;
    options.epochs = config_.pretrain_epochs;
    options.learning_rate = kPretrainLearningRate;
    options.dynamic_masking = config_.base_model == "roberta";
    options.seed = config_.seed + 1;
    timer.Restart();
    nn::PretrainMlm(encoder_.get(), id_seqs, segment_seqs, options);
    stats.pretrain_seconds = timer.ElapsedSeconds();
  }

  // -- Step 2: initialise the embedding stores Q. --------------------------
  const bool needs_store = config_.use_global || config_.use_structural;
  if (needs_store) {
    timer.Restart();
    for (TaskKind kind : tasks) RebuildStore(kind);
    stats.store_build_seconds = timer.ElapsedSeconds();
  }

  // -- Step 3: multi-task fine-tuning. ---------------------------------------
  tensor::AdamWOptions adam_options;
  adam_options.learning_rate = config_.learning_rate;
  tensor::AdamW optimizer(params, adam_options);
  if (stats.resumed && !resume.opt_m.empty()) {
    const util::Status st =
        optimizer.SetState(std::move(resume.opt_m), std::move(resume.opt_v),
                           resume.opt_step_count);
    if (!st.ok()) {
      LOG(WARNING) << "optimizer state not restored: " << st.ToString();
    }
  }

  int64_t steps_per_epoch = 0;
  for (TaskKind kind : tasks) {
    const int64_t n = static_cast<int64_t>(Task(kind).train_ids.size());
    steps_per_epoch += (n + config_.batch_size - 1) / config_.batch_size;
  }
  const int64_t total_steps = steps_per_epoch * config_.epochs;
  tensor::LinearSchedule schedule(config_.learning_rate, total_steps,
                                  /*warmup_steps=*/total_steps / 10);

  util::Rng train_rng(config_.seed + 2);
  util::Rng order_rng(config_.seed + 3);
  int64_t step = stats.resumed ? resume.schedule_step : 0;

  // Clip/skip/rollback state: the last-known-good parameter snapshot is
  // refreshed at every epoch whose weights are finite; `max_bad_steps`
  // consecutive non-finite steps restore it and reset the optimiser
  // moments (stale moments would re-apply the diverging direction).
  std::vector<std::vector<float>> good_params = SnapshotParams(params);
  int consecutive_bad = 0;
  const int max_bad = std::max(config_.max_bad_steps, 1);

  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    for (TaskKind kind : tasks) {
      const TaskData& task = Task(kind);
      std::vector<int> order = task.train_ids;
      order_rng.Shuffle(order);

      util::WallTimer task_timer;
      optimizer.ZeroGrad();
      int in_batch = 0;
      for (size_t i = 0; i < order.size(); ++i) {
        const int id = order[i];
        Forward fwd = RunForward(kind, id, nn::ExecContext::Train(train_rng));
        tensor::Tensor loss = ComputeLoss(
            kind, task.samples[static_cast<size_t>(id)], fwd);
        loss = tensor::Scale(loss,
                             1.0f / static_cast<float>(config_.batch_size));
        // A non-finite per-sample loss would poison the whole accumulated
        // batch; drop the sample and keep the batch alive.
        if (std::isfinite(loss.item())) {
          loss.Backward();
        } else {
          LOG(WARNING) << "non-finite loss on sample " << id
                       << "; excluded from this batch";
        }
        ++in_batch;
        if (in_batch == config_.batch_size || i + 1 == order.size()) {
          // Fault site "optimizer.step": poisons the accumulated
          // gradients with NaN to exercise the skip/rollback path.
          if (util::fault::ShouldInject("optimizer.step",
                                        util::fault::FaultKind::kNan)) {
            const float nan = std::numeric_limits<float>::quiet_NaN();
            for (tensor::Tensor& p : params) {
              if (!p.has_grad()) continue;
              float* g = p.grad();
              for (int64_t j = 0; j < p.size(); ++j) g[j] = nan;
            }
          }
          const bool applied =
              optimizer.Step(schedule.LearningRate(step++));
          optimizer.ZeroGrad();
          in_batch = 0;
          if (applied) {
            consecutive_bad = 0;
          } else {
            ++stats.skipped_steps;
            if (++consecutive_bad >= max_bad) {
              LOG(WARNING)
                  << consecutive_bad << " consecutive bad steps; rolling "
                  << "back to last-known-good parameters";
              RestoreParams(good_params, &params);
              optimizer.ResetState();
              consecutive_bad = 0;
              ++stats.rollbacks;
            }
          }
        }
      }
      const double seconds = task_timer.ElapsedSeconds();
      if (kind == TaskKind::kType) {
        stats.type_train_seconds += seconds;
      } else {
        stats.relation_train_seconds += seconds;
      }
    }

    // End of epoch: refresh the last-known-good snapshot, but only from
    // finite weights — a divergence that slipped past the per-step gate
    // must not become the rollback target.
    if (params_finite()) {
      good_params = SnapshotParams(params);
    } else {
      LOG(WARNING) << "non-finite weights at end of epoch " << epoch
                   << "; rolling back";
      RestoreParams(good_params, &params);
      optimizer.ResetState();
      ++stats.rollbacks;
    }

    // Periodic store refresh (paper: every 5 epochs).
    if (needs_store && (epoch + 1) % kStoreRefreshEpochs == 0 &&
        epoch + 1 < config_.epochs) {
      util::WallTimer store_timer;
      for (TaskKind kind : tasks) RebuildStore(kind);
      stats.store_build_seconds += store_timer.ElapsedSeconds();
    }

    // Model selection on validation F1-weighted (averaged over tasks).
    float valid_f1 = 0.0f;
    for (TaskKind kind : tasks) {
      valid_f1 += static_cast<float>(
          session_->Evaluate(kind, data::SplitPart::kValid).weighted);
    }
    valid_f1 /= static_cast<float>(tasks.size());
    if (std::isfinite(valid_f1) && valid_f1 > stats.best_valid_f1) {
      stats.best_valid_f1 = valid_f1;
      stats.best_epoch = epoch;
      best_params = SnapshotParams(params);
    }

    // Checkpoint every epoch; a failed save degrades to "no checkpoint
    // this epoch" — training never aborts over checkpoint I/O.
    if (!config_.checkpoint_path.empty()) {
      Checkpoint ckpt;
      ckpt.next_epoch = epoch + 1;
      ckpt.schedule_step = step;
      ckpt.best_valid_f1 = stats.best_valid_f1;
      ckpt.best_epoch = stats.best_epoch;
      ckpt.params = SnapshotParams(params);
      ckpt.best_params = best_params;
      ckpt.opt_step_count = optimizer.step_count();
      ckpt.opt_m = optimizer.first_moments();
      ckpt.opt_v = optimizer.second_moments();
      const util::Status saved =
          SaveCheckpoint(config_.checkpoint_path, ckpt);
      if (!saved.ok()) {
        LOG(WARNING) << "checkpoint save failed (training continues): "
                     << saved.ToString();
      }
    }
  }

  if (!best_params.empty()) {
    RestoreParams(best_params, &params);
    if (needs_store) {
      for (TaskKind kind : tasks) RebuildStore(kind);
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Inference
// ---------------------------------------------------------------------------

std::vector<int> ExplainTiModel::DecodeLabels(
    TaskKind kind, const std::vector<float>& logits) const {
  std::vector<int> labels;
  if (Task(kind).multi_label) {
    eval::AppendDecodedLabels(tensor::SigmoidValues(logits), true,
                              kDecodeThreshold, &labels);
  } else {
    eval::AppendDecodedLabels(logits, false, kDecodeThreshold, &labels);
  }
  return labels;
}

std::vector<int> ExplainTiModel::Predict(TaskKind kind, int sample_id) const {
  // Fast path: LE/GE do not change the final logits; skip them via the
  // explicit-flags forward (no shared-state mutation, so concurrent
  // Predict calls are safe). This is the
  // tape-building reference path the golden tests compare the no-grad
  // InferenceSession against.
  util::Rng rng(InferenceSeed(sample_id));
  Forward fwd = RunForward(kind, sample_id, nn::ExecContext::Eval(&rng),
                           /*with_local=*/false, /*with_global=*/false);
  return DecodeLabels(kind, fwd.final_logits.ToVector());
}

std::vector<float> ExplainTiModel::PredictProbabilities(TaskKind kind,
                                                        int sample_id) const {
  util::Rng rng(InferenceSeed(sample_id));
  Forward fwd = RunForward(kind, sample_id, nn::ExecContext::Eval(&rng),
                           /*with_local=*/false, /*with_global=*/false);
  return Probabilities(kind, fwd.final_logits.ToVector());
}

std::vector<float> ExplainTiModel::Probabilities(
    TaskKind kind, const std::vector<float>& logits) const {
  return Task(kind).multi_label ? tensor::SigmoidValues(logits)
                                : tensor::SoftmaxValues(logits);
}

Explanation ExplainTiModel::Explain(TaskKind kind, int sample_id) const {
  util::Rng rng(InferenceSeed(sample_id));
  Forward fwd = RunForward(kind, sample_id, nn::ExecContext::Eval(&rng));
  return MakeExplanation(kind, fwd.final_logits.ToVector(),
                         std::move(fwd.evidence));
}

Explanation ExplainTiModel::MakeExplanation(
    TaskKind kind, const std::vector<float>& final_logits,
    Evidence evidence) const {
  Explanation z;
  z.predicted_labels = DecodeLabels(kind, final_logits);
  z.probabilities = Probabilities(kind, final_logits);
  z.local = std::move(evidence.windows);
  z.global = std::move(evidence.retrieved);
  z.structural = std::move(evidence.neighbors);
  if (config_.use_global && evidence.store_empty) {
    z.degradation_note =
        "embedding store empty: global explanations unavailable";
  }
  return z;
}

util::Status ExplainTiModel::SaveWeights(const std::string& path) const {
  Checkpoint weights;
  weights.params = SnapshotParams(AllParameters());
  return SaveCheckpoint(path, weights);
}

util::Status ExplainTiModel::LoadWeights(const std::string& path) {
  util::StatusOr<Checkpoint> weights = LoadCheckpoint(path);
  if (!weights.ok()) return weights.status();
  std::vector<tensor::Tensor> params = AllParameters();
  if (!ShapesMatch(params, weights->params)) {
    return util::Status::InvalidArgument(
        "weights file " + path + " does not match the model's parameters");
  }
  RestoreParams(weights->params, &params);
  RestoreStores();
  return util::Status::OK();
}

}  // namespace explainti::core
