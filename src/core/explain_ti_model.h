#ifndef EXPLAINTI_CORE_EXPLAIN_TI_MODEL_H_
#define EXPLAINTI_CORE_EXPLAIN_TI_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/embedding_store.h"
#include "core/explanation.h"
#include "core/task_data.h"
#include "data/corpus.h"
#include "eval/f1_metrics.h"
#include "nn/encoder.h"
#include "nn/exec_context.h"
#include "nn/heads.h"
#include "text/serializer.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/status.h"

namespace explainti::core {

class InferenceSession;

/// Wall-clock accounting of a Fit() run (Table V), plus the recovery
/// events the hardened trainer survived.
struct FitStats {
  double pretrain_seconds = 0.0;
  double type_train_seconds = 0.0;
  double relation_train_seconds = 0.0;
  double store_build_seconds = 0.0;
  float best_valid_f1 = 0.0f;
  int best_epoch = -1;
  /// Optimiser steps skipped because the loss or gradients were
  /// non-finite (clip/skip/rollback policy; see DESIGN.md).
  int64_t skipped_steps = 0;
  /// Parameter rollbacks to the last-known-good snapshot after
  /// `config.max_bad_steps` consecutive skipped steps.
  int rollbacks = 0;
  /// Fit() resumed from `config.checkpoint_path` instead of pre-training.
  bool resumed = false;
};

/// The ExplainTI framework (Section III): a pre-trained mini transformer
/// encoder fine-tuned multi-task over column-type and column-relation
/// prediction, with three jointly-trained explanation modules —
/// Local (Algorithm 1), Global (Algorithm 2), Structural (Algorithm 4) —
/// optimised with the joint loss L = L_S + alpha*L_L + beta*L_G (Eq. 11,
/// Algorithm 5).
///
/// Typical usage:
///   ExplainTiModel model(config, corpus);
///   model.Fit();
///   eval::F1Scores f1 = model.Evaluate(TaskKind::kType,
///                                      data::SplitPart::kTest);
///   Explanation z = model.Explain(TaskKind::kType, sample_id);
class ExplainTiModel {
 public:
  /// Builds the vocabulary from the corpus's *training* tables, constructs
  /// the encoder for `config.base_model`, and serialises both tasks.
  ExplainTiModel(const ExplainTiConfig& config,
                 const data::TableCorpus& corpus);

  ExplainTiModel(const ExplainTiModel&) = delete;
  ExplainTiModel& operator=(const ExplainTiModel&) = delete;
  ~ExplainTiModel();

  /// Runs the full pipeline: MLM pre-training, embedding-store
  /// initialisation, and multi-task fine-tuning with epoch-level task
  /// switching; keeps the parameters of the best validation epoch.
  FitStats Fit();

  /// Does this model have the given task (relation is absent on
  /// database-table corpora)?
  bool HasTask(TaskKind kind) const;

  /// Test/valid/train F1 for one task. Routed through the no-grad
  /// InferenceSession (bit-identical to the tape path).
  eval::F1Scores Evaluate(TaskKind kind, data::SplitPart part) const;

  /// Predicted label ids for one sample (no explanation overhead). This is
  /// the tape-building reference path; serving should go through
  /// session() instead.
  std::vector<int> Predict(TaskKind kind, int sample_id) const;

  /// Prediction plus the multi-view explanation set Z (tape-building
  /// reference path; see session()).
  Explanation Explain(TaskKind kind, int sample_id) const;

  /// The frozen no-grad serving facade over this model's current weights.
  /// Valid for the model's lifetime; weights-mutating calls (Fit,
  /// LoadWeights) must not run concurrently with session use.
  const InferenceSession& session() const { return *session_; }

  /// Re-encodes all training samples and rebuilds the embedding stores
  /// from the current weights (serving-time refresh; also lets tests and
  /// benches populate stores without a full Fit()). Safe to call while
  /// the session serves concurrently: each rebuild publishes a
  /// copy-on-write store snapshot, and in-flight forward passes keep the
  /// snapshot they pinned (EmbeddingStore::View) — weights-mutating calls
  /// (Fit, LoadWeights) remain excluded from concurrent session use.
  void RefreshStores();

  /// Persists every active task's embedding store under `dir` (one
  /// subdirectory per task: type/, relation/) in the segmented
  /// CRC32-footed format of store_persistence.h. Requires non-empty
  /// stores (call RefreshStores()/Fit() first).
  util::Status SaveStores(const std::string& dir) const;

  /// Reopens stores written by SaveStores() (segments load via mmap) and
  /// publishes them as the current store snapshots — no corpus
  /// re-encoding. Fails with a typed error on missing/corrupt files or a
  /// geometry mismatch with this model (wrong dim, ids beyond the task's
  /// samples); on failure the stores keep their previous snapshots.
  util::Status LoadStores(const std::string& dir);

  const TaskData& task_data(TaskKind kind) const;
  const ExplainTiConfig& config() const { return config_; }
  /// The tape encoder M (the reference for InferenceSession::EncodeBatch).
  const nn::TransformerEncoder& encoder() const { return *encoder_; }
  const text::Vocab& vocab() const { return *vocab_; }

  /// Per-label sigma outputs for one sample (probabilities).
  std::vector<float> PredictProbabilities(TaskKind kind, int sample_id) const;

  /// Writes all trainable parameters to `path` (binary). The file is only
  /// loadable into a model built with the same config and corpus (the
  /// architecture is reconstructed from those; the file carries weights
  /// only).
  util::Status SaveWeights(const std::string& path) const;

  /// Restores parameters written by SaveWeights and rebuilds the
  /// embedding stores. Fails on shape mismatch without modifying weights.
  util::Status LoadWeights(const std::string& path);

 private:
  friend class InferenceSession;

  /// Trainable heads for one task.
  struct TaskHeads {
    std::unique_ptr<nn::ClassifierHead> base;        // Eq. 1 (w/o SE).
    std::unique_ptr<nn::ClassifierHead> structural;  // Eq. 9 (2d -> c).
    std::unique_ptr<nn::ClassifierHead> local;       // Eq. 2 (W_l).
    std::unique_ptr<nn::ClassifierHead> global;      // l_G head (W_g).
  };

  /// The explanation records of one forward pass. The tape forward and
  /// the session's compiled tail build them through the same helpers
  /// below, so identical inputs give identical records (texts, labels and
  /// tie order included).
  struct Evidence {
    std::vector<LocalExplanation> windows;         // LE, by relevance.
    std::vector<GlobalExplanation> retrieved;      // GE, by influence.
    std::vector<StructuralExplanation> neighbors;  // SE, by attention.
    bool ann_fallback = false;  // GE retrieval used the flat-index fallback.
    bool store_empty = false;   // The pinned store snapshot had no rows.
  };

  /// Outcome of one tape forward pass with the explanation modules
  /// attached.
  struct Forward {
    tensor::Tensor final_logits;   // SE logits (Eq. 9) or base (Eq. 1).
    tensor::Tensor local_probs;    // l_L (probability vector), if LE on.
    tensor::Tensor global_logits;  // l_G, if GE on and store ready.
    Evidence evidence;
  };

  /// LE candidate windows of one sample (Algorithm 1), as [start, end)
  /// token spans. Type samples slide one window over the content;
  /// relation samples pair every left-column window with every
  /// right-column window, left-major.
  struct LocalWindows {
    std::vector<std::pair<int, int>> left;
    std::vector<std::pair<int, int>> right;  // Relation samples only.
    bool paired = false;
    size_t size() const {
      return paired ? left.size() * right.size() : left.size();
    }
    /// Indices into `left` / `right` of window (pair) j.
    size_t LeftOf(size_t j) const { return paired ? j / right.size() : j; }
    size_t RightOf(size_t j) const { return j % right.size(); }
  };

  const TaskData& Task(TaskKind kind) const;
  TaskHeads& Heads(TaskKind kind);
  const TaskHeads& Heads(TaskKind kind) const;
  EmbeddingStore& Store(TaskKind kind);
  const EmbeddingStore& Store(TaskKind kind) const;

  /// Full tape forward pass for `sample_id`: the training path and the
  /// serving oracle. `ctx` selects train or eval and carries the RNG used
  /// for dropout and SE neighbour sampling. The three-argument form runs
  /// with the configured explanation modules; the explicit form lets
  /// Predict() skip LE/GE (they never change the final logits) without
  /// mutating shared state, which keeps concurrent Evaluate() calls
  /// race-free.
  Forward RunForward(TaskKind kind, int sample_id,
                     const nn::ExecContext& ctx) const {
    return RunForward(kind, sample_id, ctx, config_.use_local,
                      config_.use_global);
  }
  Forward RunForward(TaskKind kind, int sample_id, const nn::ExecContext& ctx,
                     bool with_local, bool with_global) const;

  /// Assembles the public Explanation record from the final logits and
  /// the evidence of a forward pass (tape or compiled).
  Explanation MakeExplanation(TaskKind kind,
                              const std::vector<float>& final_logits,
                              Evidence evidence) const;

  // -- Explanation-tail steps shared by RunForward and the session --------

  /// SE neighbour selection (Algorithm 4): samples 2-hop neighbours from
  /// `rng`, keeps in-store training samples up to config.sample_size and
  /// pads with replacement. Empty when no neighbour is in the store.
  std::vector<graph::SampledNeighbor> SelectNeighbors(
      const TaskData& task, int sample_id, const EmbeddingStore::View& store,
      util::Rng& rng) const;

  /// SE records: repeated neighbours merged, sorted by attention. With no
  /// usable neighbour, the one self record (attention may be null then).
  static std::vector<StructuralExplanation> StructuralRecords(
      const TaskData& task, int sample_id,
      const std::vector<graph::SampledNeighbor>& usable,
      const float* attention);

  /// GE retrieval: the config.top_k nearest stored samples to `cls`,
  /// excluding the sample itself when it is a training sample.
  std::vector<ann::SearchResult> SearchGlobal(
      const TaskData& task, int sample_id, const EmbeddingStore::View& store,
      const std::vector<float>& cls, bool* used_fallback) const;

  /// out = e / ||e|| (double-accumulated norm; zero row for a zero
  /// vector): a retrieved embedding's row of the GE cosine GEMM.
  static void UnitRow(const EmbeddingStore::EmbeddingRef& e, float* out);

  /// GE records, one per hit, sorted by influence.
  static std::vector<GlobalExplanation> GlobalRecords(
      const TaskData& task, const std::vector<ann::SearchResult>& hits,
      const float* influence);

  LocalWindows WindowsFor(TaskKind kind, const TaskSample& sample) const;

  /// RS_j = KL_j / sum KL (Eq. 3), with a non-positive total read as 1.
  static std::vector<float> Relevances(std::vector<float> kls);

  /// LE records sorted by relevance, each with its window text.
  static std::vector<LocalExplanation> LocalRecords(
      const TaskSample& sample, const LocalWindows& windows,
      const std::vector<float>& relevance);

  /// Builds the per-sample joint loss (Eq. 11) from a Forward.
  tensor::Tensor ComputeLoss(TaskKind kind, const TaskSample& sample,
                             const Forward& forward) const;

  /// Re-encodes all training samples of `kind` and rebuilds its store.
  void RebuildStore(TaskKind kind);

  /// LoadWeights' store step: reopen persisted stores from
  /// `config_.store_dir` when set and loadable, otherwise fall back to
  /// RefreshStores() (the in-memory re-encode).
  void RestoreStores();

  /// Per-label sigma outputs (sigmoid or softmax) from final logits.
  std::vector<float> Probabilities(TaskKind kind,
                                   const std::vector<float>& logits) const;

  /// Decodes predicted label ids from final logits.
  std::vector<int> DecodeLabels(TaskKind kind,
                                const std::vector<float>& logits) const;

  std::vector<tensor::Tensor> AllParameters() const;

  /// Seed for inference-time stochastic components (SE neighbour
  /// sampling), derived from the config seed and the sample so that
  /// Predict/Explain are deterministic per sample, independent of call
  /// order (and reproducible after SaveWeights/LoadWeights).
  uint64_t InferenceSeed(int sample_id) const {
    return config_.seed * 2654435761ULL + 999 +
           static_cast<uint64_t>(sample_id);
  }

  ExplainTiConfig config_;
  std::shared_ptr<text::Vocab> vocab_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  std::unique_ptr<text::SequenceSerializer> serializer_;

  std::unique_ptr<nn::TransformerEncoder> encoder_;
  TaskHeads type_heads_;
  TaskHeads relation_heads_;

  std::optional<TaskData> type_task_;
  std::optional<TaskData> relation_task_;

  EmbeddingStore type_store_;
  EmbeddingStore relation_store_;

  // Created in the constructor; borrows *this (never null afterwards).
  std::unique_ptr<InferenceSession> session_;
};

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_EXPLAIN_TI_MODEL_H_
