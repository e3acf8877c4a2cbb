#ifndef EXPLAINTI_CORE_CHECKPOINT_H_
#define EXPLAINTI_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace explainti::core {

/// Training-state snapshot persisted between epochs so an interrupted
/// `ExplainTiModel::Fit()` can resume instead of restarting (including the
/// pre-training phase, which the snapshot already contains).
///
/// On-disk layout (little-endian, fixed-width):
///
///   magic "XTICKPT1"                       8 bytes
///   version                                u32
///   next_epoch                             i32
///   schedule_step                          i64
///   best_valid_f1                          f32
///   best_epoch                             i32
///   num_params                             i64
///   params[i]: size i64, data f32[size]    (repeated num_params times)
///   has_best_params                        u8
///   best_params[i]: data f32[params[i].size]   (if has_best_params)
///   has_optimizer                          u8
///   opt_step_count                         i64        (if has_optimizer)
///   opt_m[i], opt_v[i]: f32[params[i].size]    (if has_optimizer)
///   crc32 over every preceding byte        u32  <- integrity footer
///
/// Files go through util::WriteFramedFile / util::ReadFramedFile: writes
/// are atomic (tmp file + rename), so a crash or injected `file.write`
/// fault never leaves a partial file at `path`. Loads verify the CRC
/// footer first and return `Status` on any corruption or truncation;
/// callers fall back to training from scratch.
///
/// A weights file (ExplainTiModel::SaveWeights) is a checkpoint that
/// holds only `params`: epoch 0, no best params, no optimizer state.
struct Checkpoint {
  int32_t next_epoch = 0;     ///< First epoch still to run.
  int64_t schedule_step = 0;  ///< LR-schedule position.
  float best_valid_f1 = 0.0f;
  int32_t best_epoch = -1;
  /// Current parameter values, in `AllParameters()` order.
  std::vector<std::vector<float>> params;
  /// Best-validation-epoch parameters; empty when no epoch finished yet.
  std::vector<std::vector<float>> best_params;
  /// AdamW state; `opt_m`/`opt_v` empty when not saved.
  int64_t opt_step_count = 0;
  std::vector<std::vector<float>> opt_m;
  std::vector<std::vector<float>> opt_v;
};

/// Writes `ckpt` to `path` atomically with a CRC32 footer. Fault site:
/// "file.write" (an injected IoError removes the partial tmp file).
util::Status SaveCheckpoint(const std::string& path, const Checkpoint& ckpt);

/// Reads a checkpoint. Returns NotFound when `path` does not exist (no
/// checkpoint yet — not an error for resume logic), InvalidArgument for a
/// corrupted/truncated/CRC-mismatched file, IoError when `path` cannot
/// be read (e.g. it names a directory).
util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& path);

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_CHECKPOINT_H_
