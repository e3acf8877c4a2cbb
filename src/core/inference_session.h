#ifndef EXPLAINTI_CORE_INFERENCE_SESSION_H_
#define EXPLAINTI_CORE_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/explain_ti_model.h"
#include "core/explanation.h"
#include "core/task_data.h"
#include "data/corpus.h"
#include "eval/f1_metrics.h"
#include "util/status.h"

namespace explainti::core {

/// Frozen, read-only serving facade over a trained ExplainTiModel.
///
/// Straight-line serving, no tensor graph. Every call runs one function,
/// RunTail, on raw float buffers carved from a single per-call
/// tensor::ScratchBuffer: the encoder's raw-buffer forward
/// (nn::TransformerEncoder::Serve), then SE or the base head, and for
/// Explain the GE/LE views, all on the shared serving kernels
/// (tensor/plan_kernels.h). The tail shares neighbour selection,
/// retrieval and record building with the model's tape RunForward, so
/// both draw the same SE sample and emit the same records. fp32 outputs
/// are bit-identical to the model's tape-building Predict/Explain, which
/// is the oracle the golden tests compare against. Serving reads the
/// model's parameter storage in place (updated in place by Fit and
/// LoadWeights), so the session holds no compiled state and never goes
/// stale; under serve's hot-swap a new generation is simply a new model
/// with its own session.
///
/// All methods are const and touch no mutable model state (per-call RNGs
/// are derived from ExplainTiModel::InferenceSeed), so one session may be
/// shared across threads serving concurrent requests. The only contract
/// is lifetime/ordering: the model must outlive the session, and
/// weights-mutating calls (Fit, LoadWeights) must not run concurrently
/// with session use. Obtain a session via ExplainTiModel::session(), e.g.
/// after LoadWeights:
///
///   ExplainTiModel model(config, corpus);
///   CHECK(model.LoadWeights(path).ok());
///   const InferenceSession& session = model.session();
///   std::vector<int> labels = session.Predict(TaskKind::kType, id);
///   Explanation z = session.Explain(TaskKind::kType, id);
class InferenceSession {
 public:
  explicit InferenceSession(const ExplainTiModel& model) : model_(&model) {}

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  bool HasTask(TaskKind kind) const { return model_->HasTask(kind); }
  const ExplainTiConfig& config() const { return model_->config(); }
  const TaskData& task_data(TaskKind kind) const {
    return model_->task_data(kind);
  }

  /// Predicted label ids for one sample (no explanation overhead).
  std::vector<int> Predict(TaskKind kind, int sample_id) const;

  /// Per-label sigma outputs for one sample (probabilities).
  std::vector<float> PredictProbabilities(TaskKind kind, int sample_id) const;

  /// Prediction plus the multi-view explanation set Z.
  Explanation Explain(TaskKind kind, int sample_id) const;

  /// Batched Predict: one label vector per entry of `sample_ids`, fanned
  /// out across the pool (each worker on its own per-thread scratch).
  /// Outputs are bit-identical to per-sample Predict — every sample still
  /// runs the same single-sample forward with its own InferenceSeed RNG,
  /// so results do not depend on batch composition or thread count. This
  /// is the dispatch point for the serve::InferenceServer micro-batcher.
  std::vector<std::vector<int>> PredictBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Batched PredictProbabilities; same contract as PredictBatch.
  std::vector<std::vector<float>> PredictProbabilitiesBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Batched Explain; same contract as PredictBatch. Each returned
  /// Explanation carries its own per-sample degradation note — batching
  /// never drops the annotation.
  std::vector<Explanation> ExplainBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// [CLS] embeddings for `sample_ids`, encoded in parallel across the
  /// pool (each worker on its own per-thread scratch); the encoder's
  /// last layer computes only the [CLS] row. Feeds the GE/SE
  /// embedding-store rebuilds.
  std::vector<std::vector<float>> EncodeBatch(
      TaskKind kind, const std::vector<int>& sample_ids) const;

  /// Test/valid/train F1 for one task, predictions fanned out across the
  /// pool.
  eval::F1Scores Evaluate(TaskKind kind, data::SplitPart part) const;

 private:
  /// The explanation tail for one sample: the encoder, then SE (or the
  /// base head), and — when `evidence` is non-null, for Explain — GE and
  /// LE with their records. Returns the final logits. Only LE reads the
  /// encoder's token rows, so without it (Predict, or Explain with LE
  /// off) the encoder's last layer computes and copies out only the
  /// [CLS] row; without `evidence` no record is built either.
  std::vector<float> RunTail(TaskKind kind, int sample_id,
                             ExplainTiModel::Evidence* evidence) const;

  const ExplainTiModel* model_;
};

/// Loads a complete serving replica for a model hot-swap: constructs a
/// fresh ExplainTiModel, loads the checkpoint at `weights_path`, and
/// warms its GE/SE embedding stores — entirely off to the side, touching
/// no live state, so the currently-serving model keeps answering while
/// the replica loads. On success the replica's session() is ready to hand
/// to serve::InferenceServer::SwapSession; on any failure (an unreadable
/// or corrupt checkpoint) the error Status is returned and there is
/// nothing to roll back — the caller simply keeps the old generation.
util::StatusOr<std::unique_ptr<ExplainTiModel>> LoadReplicaForSwap(
    const ExplainTiConfig& config, const data::TableCorpus& corpus,
    const std::string& weights_path);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_INFERENCE_SESSION_H_
