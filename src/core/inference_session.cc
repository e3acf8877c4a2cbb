#include "core/inference_session.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "tensor/plan_kernels.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace explainti::core {

namespace {

// The one place the session indexes a task's samples: an out-of-range id
// dies here, before any SE draw, as it does on the tape's RunForward.
const TaskSample& CheckedSample(const TaskData& task, int sample_id) {
  const int num_samples = static_cast<int>(task.samples.size());
  CHECK(sample_id >= 0 && sample_id < num_samples)
      << "sample id " << sample_id << " out of range [0, " << num_samples
      << ")";
  return task.samples[static_cast<size_t>(sample_id)];
}

}  // namespace

std::vector<float> InferenceSession::RunTail(
    TaskKind kind, int sample_id, ExplainTiModel::Evidence* evidence) const {
  const ExplainTiModel& model = *model_;
  const ExplainTiConfig& config = model.config();
  const TaskData& task = model.Task(kind);
  const TaskSample& sample = CheckedSample(task, sample_id);
  const ExplainTiModel::TaskHeads& heads = model.Heads(kind);
  const nn::TransformerEncoder& encoder = model.encoder();
  const bool explain = evidence != nullptr;
  const int64_t len = static_cast<int64_t>(sample.seq.ids.size());
  const int64_t d = encoder.config().d_model;
  const int64_t c = task.num_labels;

  // One store snapshot for SE and GE, pinned exactly as RunForward pins
  // it; SE neighbour selection is the only RNG draw, as on the tape.
  const EmbeddingStore::View store = model.Store(kind).view();
  const bool se_ready = config.use_structural && store.size() > 0;
  const bool ge_ready = explain && config.use_global && store.size() > 0;
  std::vector<graph::SampledNeighbor> usable;
  if (se_ready) {
    util::Rng rng(model.InferenceSeed(sample_id));
    usable = model.SelectNeighbors(task, sample_id, store, rng);
  }
  const ExplainTiModel::LocalWindows windows =
      explain && config.use_local ? model.WindowsFor(kind, sample)
                                  : ExplainTiModel::LocalWindows();

  // One scratch for the whole call, the encoder's working set included.
  // LE reads every encoder row; Predict and a tail without LE read only
  // [CLS], and the encoder's last layer then computes only that row.
  const int64_t rows = windows.size() > 0 ? len : 1;
  const int64_t r = static_cast<int64_t>(usable.size());
  const int64_t top_k = ge_ready ? config.top_k : 0;
  const int64_t w = static_cast<int64_t>(windows.size());
  const int64_t means =
      static_cast<int64_t>(windows.left.size() + windows.right.size());
  const int64_t encoder_scratch = encoder.ServeScratchFloats(len);
  tensor::ScratchBuffer scratch(static_cast<size_t>(
      rows * d + encoder_scratch + 2 * d + r * d + r + top_k * d + d + top_k +
      (w > 0 ? (means + w) * d + w * c : 0)));
  float* next = scratch.data();
  const auto take = [&next](int64_t n) {
    float* p = next;
    next += n;
    return p;
  };

  // -- Encoder: E [rows, d] into the scratch. ------------------------------
  float* e = take(rows * d);
  float* encoder_work = take(encoder_scratch);
  encoder.Serve(sample.seq.ids, sample.seq.segments, encoder_work, e, rows);
  const float* cls = e;

  // -- SE (Algorithm 4), or the base head. ---------------------------------
  std::vector<float> logits(static_cast<size_t>(c));
  if (se_ready) {
    // [E_s | E_cls]; with no in-store neighbour E_s is the sample's own
    // [CLS] row.
    float* concat = take(2 * d);
    const float* attention = nullptr;
    if (usable.empty()) {
      std::copy(cls, cls + d, concat);
    } else {
      float* gathered = take(r * d);
      for (int64_t j = 0; j < r; ++j) {
        const EmbeddingStore::EmbeddingRef nbr =
            store.Embedding(usable[static_cast<size_t>(j)].sample_id);
        std::copy(nbr.begin(), nbr.end(), gathered + j * d);
      }
      // AS = softmax(E_n . E_cls) (Eq. 5); E_s = sum AS_n E_n (Eq. 6).
      float* scores = take(r);
      tensor::ZeroRows(scores, 1, r, 1);
      tensor::ServingGemm(gathered, d, cls, 1, /*trans_b=*/false, scores, 1,
                          r, d, 1);
      tensor::ScaleSoftmaxRows(scores, 1, r, 1.0f);
      tensor::ZeroRows(concat, d, 1, d);
      tensor::ServingGemm(scores, r, gathered, d, /*trans_b=*/false, concat,
                          d, 1, r, d);
      attention = scores;
    }
    std::copy(cls, cls + d, concat + d);
    heads.structural->projection().Serve(concat, 1, logits.data());
    if (explain) {
      evidence->neighbors =
          ExplainTiModel::StructuralRecords(task, sample_id, usable, attention);
    }
  } else {
    heads.base->projection().Serve(cls, 1, logits.data());
  }
  if (!explain) return logits;
  evidence->store_empty = store.size() == 0;

  // -- GE (Algorithm 2): IS = softmax(cos(E_cls, q)) (Eq. 4). The global
  // head only feeds the training loss, so it is not run. ------------------
  if (ge_ready) {
    const std::vector<ann::SearchResult> hits = model.SearchGlobal(
        task, sample_id, store, std::vector<float>(cls, cls + d));
    const int64_t k = static_cast<int64_t>(hits.size());
    CHECK_LE(k, top_k) << "store search returned more than top_k hits";
    if (k > 0) {
      float* q = take(k * d);
      for (int64_t j = 0; j < k; ++j) {
        ExplainTiModel::UnitRow(
            store.Embedding(static_cast<int>(hits[static_cast<size_t>(j)].id)),
            q + j * d);
      }
      float* cls_norm = take(d);
      tensor::L2NormalizeRow(cls, cls_norm, d, /*eps=*/1e-8f);
      float* influence = take(k);
      tensor::ZeroRows(influence, 1, k, 1);
      tensor::ServingGemm(q, d, cls_norm, 1, /*trans_b=*/false, influence, 1,
                          k, d, 1);
      tensor::ScaleSoftmaxRows(influence, 1, k, 1.0f);
      evidence->retrieved = ExplainTiModel::GlobalRecords(task, hits, influence);
    }
  }

  // -- LE (Algorithm 1): every t_j = E_cls - mean(window) stacked into one
  // [W, d] block, one GEMM against the local head, then KL(s_j, ref). -----
  if (w > 0) {
    std::vector<float> ref = model.Probabilities(kind, logits);
    if (task.multi_label) tensor::NormalizeToDistribution(ref);
    // Each side's window means once; relation pairs reuse them across the
    // W1 x W2 grid.
    float* side_means = take(means * d);
    int64_t slot = 0;
    for (const auto* side : {&windows.left, &windows.right}) {
      for (const auto& [start, end] : *side) {
        tensor::MeanRowsInto(e + start * d, end - start, d,
                             side_means + slot++ * d);
      }
    }
    const float* right_means =
        side_means + static_cast<int64_t>(windows.left.size()) * d;
    float* t = take(w * d);
    for (int64_t j = 0; j < w; ++j) {
      const float* pooled =
          side_means + static_cast<int64_t>(windows.LeftOf(j)) * d;
      float* row = t + j * d;
      if (windows.paired) {
        const float* pooled2 =
            right_means + static_cast<int64_t>(windows.RightOf(j)) * d;
        for (int64_t i = 0; i < d; ++i) {
          const float pair_mean = (pooled[i] + pooled2[i]) * 0.5f;
          row[i] = cls[i] - pair_mean;
        }
      } else {
        for (int64_t i = 0; i < d; ++i) row[i] = cls[i] - pooled[i];
      }
    }
    float* probs = take(w * c);
    heads.local->projection().Serve(t, w, probs);
    if (task.multi_label) {
      tensor::SigmoidInto(probs, probs, w * c);
    } else {
      tensor::ScaleSoftmaxRows(probs, w, c, 1.0f);
    }
    std::vector<float> kls(static_cast<size_t>(w));
    for (int64_t j = 0; j < w; ++j) {
      const std::span<float> s_j(probs + j * c, static_cast<size_t>(c));
      if (task.multi_label) tensor::NormalizeToDistribution(s_j);
      kls[static_cast<size_t>(j)] = tensor::KlDivergence(s_j, ref);
    }
    evidence->windows = ExplainTiModel::LocalRecords(
        sample, windows, ExplainTiModel::Relevances(std::move(kls)));
  }
  return logits;
}

std::vector<int> InferenceSession::Predict(TaskKind kind,
                                           int sample_id) const {
  return model_->DecodeLabels(kind, RunTail(kind, sample_id, nullptr));
}

std::vector<float> InferenceSession::PredictProbabilities(
    TaskKind kind, int sample_id) const {
  return model_->Probabilities(kind, RunTail(kind, sample_id, nullptr));
}

Explanation InferenceSession::Explain(TaskKind kind, int sample_id) const {
  ExplainTiModel::Evidence evidence;
  const std::vector<float> logits = RunTail(kind, sample_id, &evidence);
  return model_->MakeExplanation(kind, logits, std::move(evidence));
}

namespace {

// Shared fan-out shape for the batched serving entry points: each sample
// is an independent single-sample call (own scratch, own InferenceSeed
// RNG, writes only its own output slot), so chunking over the pool keeps
// results bit-identical to the serial per-sample loop at any thread
// count and any batch composition.
template <typename Result, typename Fn>
std::vector<Result> ForEachSample(const std::vector<int>& sample_ids,
                                  const Fn& fn) {
  std::vector<Result> results(sample_ids.size());
  util::ParallelFor(0, static_cast<int64_t>(sample_ids.size()),
                    [&](int64_t ib, int64_t ie) {
                      for (int64_t i = ib; i < ie; ++i) {
                        results[static_cast<size_t>(i)] =
                            fn(sample_ids[static_cast<size_t>(i)]);
                      }
                    });
  return results;
}

}  // namespace

std::vector<std::vector<int>> InferenceSession::PredictBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<std::vector<int>>(
      sample_ids, [&](int id) { return Predict(kind, id); });
}

std::vector<std::vector<float>> InferenceSession::PredictProbabilitiesBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<std::vector<float>>(
      sample_ids, [&](int id) { return PredictProbabilities(kind, id); });
}

std::vector<Explanation> InferenceSession::ExplainBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  return ForEachSample<Explanation>(
      sample_ids, [&](int id) { return Explain(kind, id); });
}

std::vector<std::vector<float>> InferenceSession::EncodeBatch(
    TaskKind kind, const std::vector<int>& sample_ids) const {
  const TaskData& task = model_->Task(kind);
  const nn::TransformerEncoder& encoder = model_->encoder();
  // The store rebuild only needs the [CLS] row: the encoder's last layer
  // computes just that row, and Serve copies it out directly.
  return ForEachSample<std::vector<float>>(sample_ids, [&](int id) {
    const TaskSample& sample = CheckedSample(task, id);
    const int64_t len = static_cast<int64_t>(sample.seq.ids.size());
    tensor::ScratchBuffer scratch(
        static_cast<size_t>(encoder.ServeScratchFloats(len)));
    std::vector<float> cls(static_cast<size_t>(encoder.config().d_model));
    encoder.Serve(sample.seq.ids, sample.seq.segments, scratch.data(),
                  cls.data(), /*rows=*/1);
    return cls;
  });
}

eval::F1Scores InferenceSession::Evaluate(TaskKind kind,
                                          data::SplitPart part) const {
  const TaskData& task = model_->Task(kind);
  const std::vector<int>* ids = nullptr;
  switch (part) {
    case data::SplitPart::kTrain:
      ids = &task.train_ids;
      break;
    case data::SplitPart::kValid:
      ids = &task.valid_ids;
      break;
    case data::SplitPart::kTest:
      ids = &task.test_ids;
      break;
  }
  std::vector<std::vector<int>> predicted = PredictBatch(kind, *ids);
  std::vector<eval::LabeledPrediction> predictions(ids->size());
  for (size_t i = 0; i < ids->size(); ++i) {
    predictions[i].gold = CheckedSample(task, (*ids)[i]).labels;
    predictions[i].predicted = std::move(predicted[i]);
  }
  return eval::ComputeF1(predictions, task.num_labels);
}

util::StatusOr<std::unique_ptr<ExplainTiModel>> LoadReplicaForSwap(
    const ExplainTiConfig& config, const data::TableCorpus& corpus,
    const std::string& weights_path) {
  auto replica = std::make_unique<ExplainTiModel>(config, corpus);
  // LoadWeights warms the GE/SE stores itself: it reopens the persisted
  // segmented stores from config.store_dir when set (mmap, no corpus
  // re-encode) and re-encodes in memory otherwise — so the first
  // post-swap Explain is never a cold start. No extra RefreshStores here;
  // the old double re-encode is gone.
  if (util::Status loaded = replica->LoadWeights(weights_path);
      !loaded.ok()) {
    return loaded;
  }
  return replica;
}

}  // namespace explainti::core
