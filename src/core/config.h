#ifndef EXPLAINTI_CORE_CONFIG_H_
#define EXPLAINTI_CORE_CONFIG_H_

#include <cstdint>
#include <string>

namespace explainti::core {

/// Hyper-parameters of the ExplainTI framework (paper Section IV-A, scaled
/// to this CPU reproduction; paper values noted in comments).
struct ExplainTiConfig {
  /// Base encoder: "bert" or "roberta".
  std::string base_model = "bert";

  // -- Explanation modules (the ablation switches of Table III) ----------
  bool use_local = true;       ///< LE (Algorithm 1).
  bool use_global = true;      ///< GE (Algorithm 2).
  bool use_structural = true;  ///< SE (Algorithm 4).
  /// PP: deduplicate cell values during serialisation (Section IV-D).
  bool dedup_cells = false;

  // -- Loss weights (Eq. 11) ---------------------------------------------
  float alpha = 0.10f;  ///< LE loss weight (paper grid {0.05..0.50}).
  float beta = 0.10f;   ///< GE loss weight.

  // -- Module hyper-parameters -------------------------------------------
  int top_k = 10;           ///< K influential samples in GE (paper: 10).
  int window_size = 8;      ///< LE window k (paper: 8).
  int sample_size = 16;     ///< SE neighbour sample size r (paper: 16).
  /// Embedding-store refresh period in epochs. The paper refreshes every
  /// 5 of its 40 epochs; scaled to this reproduction's ~10-epoch runs the
  /// same refresh *fraction* is every 2 epochs (stale stores make SE feed
  /// pre-fine-tuning embeddings to the classifier and hurt accuracy).
  int q_refresh_epochs = 2;

  // -- Optimisation ---------------------------------------------------------
  int epochs = 10;             ///< Per task (paper: 40 on A100).
  float learning_rate = 1e-3f; ///< (paper: 5e-5 for BERT-base).
  int batch_size = 16;         ///< Gradient-accumulation batch (paper: 160).
  int max_seq_len = 40;        ///< Token budget (paper: 64).
  uint64_t seed = 1234;

  // -- Pre-training -----------------------------------------------------------
  int pretrain_epochs = 2;
  float pretrain_learning_rate = 1e-3f;

  // -- Embedding store (see DESIGN.md "Sharded embedding store") ----------
  /// Id-range segments per embedding store (>= 1). More segments shard the
  /// ANN search across the thread pool and make rebuilds copy-on-write at
  /// segment granularity (only dirty id-ranges re-index).
  int store_segments = 1;
  /// When non-empty, LoadWeights() prefers reopening the persisted stores
  /// under this directory (mmap-backed; written by SaveStores()) over
  /// re-encoding the corpus. Missing or corrupt store files log a warning
  /// and fall back to the in-memory rebuild.
  std::string store_dir;

  // -- Robustness (see DESIGN.md "Failure model & recovery") --------------
  /// Consecutive non-finite (skipped) optimiser steps tolerated before
  /// Fit() rolls the parameters back to the last-known-good snapshot and
  /// resets the optimiser moments.
  int max_bad_steps = 3;
  /// When non-empty, Fit() writes a CRC32-protected checkpoint here every
  /// `checkpoint_every_epochs` epochs and, when `resume_from_checkpoint`,
  /// resumes from it (skipping pre-training). A corrupted or truncated
  /// checkpoint is rejected and training restarts from scratch.
  std::string checkpoint_path;
  int checkpoint_every_epochs = 1;
  bool resume_from_checkpoint = true;

  /// Whether the task's type labels are multi-label (sigmoid+BCE) or
  /// multi-class (softmax+CE); copied from the corpus at Fit time.
};

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_CONFIG_H_
