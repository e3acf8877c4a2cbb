#include "core/checkpoint.h"

#include "util/binary_io.h"

namespace explainti::core {

namespace {

constexpr char kMagic[] = "XTICKPT1";
constexpr uint32_t kVersion = 1;

// The framing (magic, CRC32 footer, atomic publish) and the field
// helpers live in util/binary_io.h, shared with the embedding-store
// segment/manifest formats.
using util::AppendFloats;
using util::AppendPod;

}  // namespace

util::Status SaveCheckpoint(const std::string& path, const Checkpoint& ckpt) {
  if (ckpt.best_params.size() != 0 &&
      ckpt.best_params.size() != ckpt.params.size()) {
    return util::Status::InvalidArgument(
        "best_params count must be 0 or match params");
  }
  const bool has_opt = !ckpt.opt_m.empty();
  if (has_opt && (ckpt.opt_m.size() != ckpt.params.size() ||
                  ckpt.opt_v.size() != ckpt.params.size())) {
    return util::Status::InvalidArgument(
        "optimizer state count must match params");
  }

  std::string buffer;
  buffer.append(kMagic, 8);
  AppendPod(&buffer, kVersion);
  AppendPod(&buffer, ckpt.next_epoch);
  AppendPod(&buffer, ckpt.schedule_step);
  AppendPod(&buffer, ckpt.best_valid_f1);
  AppendPod(&buffer, ckpt.best_epoch);
  AppendPod(&buffer, static_cast<int64_t>(ckpt.params.size()));
  for (const std::vector<float>& p : ckpt.params) {
    AppendPod(&buffer, static_cast<int64_t>(p.size()));
    AppendFloats(&buffer, p);
  }
  AppendPod(&buffer, static_cast<uint8_t>(ckpt.best_params.empty() ? 0 : 1));
  for (size_t i = 0; i < ckpt.best_params.size(); ++i) {
    if (ckpt.best_params[i].size() != ckpt.params[i].size()) {
      return util::Status::InvalidArgument(
          "best_params size mismatch at parameter " + std::to_string(i));
    }
    AppendFloats(&buffer, ckpt.best_params[i]);
  }
  AppendPod(&buffer, static_cast<uint8_t>(has_opt ? 1 : 0));
  if (has_opt) {
    AppendPod(&buffer, ckpt.opt_step_count);
    for (size_t i = 0; i < ckpt.params.size(); ++i) {
      if (ckpt.opt_m[i].size() != ckpt.params[i].size() ||
          ckpt.opt_v[i].size() != ckpt.params[i].size()) {
        return util::Status::InvalidArgument(
            "optimizer state size mismatch at parameter " +
            std::to_string(i));
      }
      AppendFloats(&buffer, ckpt.opt_m[i]);
      AppendFloats(&buffer, ckpt.opt_v[i]);
    }
  }
  return util::WriteFramedFile(path, buffer);
}

util::StatusOr<Checkpoint> LoadCheckpoint(const std::string& path) {
  util::StatusOr<util::FramedFile> framed =
      util::ReadFramedFile(path, kMagic, "checkpoint");
  if (!framed.ok()) return framed.status();
  util::BinaryReader& reader = framed->body;
  uint32_t version = 0;
  Checkpoint ckpt;
  int64_t num_params = 0;
  if (!reader.Read(&version) || version != kVersion) {
    return util::Status::InvalidArgument("unsupported checkpoint version");
  }
  const auto truncated = [&path]() {
    return util::Status::InvalidArgument("truncated checkpoint: " + path);
  };
  if (!reader.Read(&ckpt.next_epoch) || !reader.Read(&ckpt.schedule_step) ||
      !reader.Read(&ckpt.best_valid_f1) || !reader.Read(&ckpt.best_epoch) ||
      !reader.Read(&num_params) || num_params < 0) {
    return truncated();
  }
  ckpt.params.resize(static_cast<size_t>(num_params));
  for (auto& p : ckpt.params) {
    int64_t size = 0;
    if (!reader.Read(&size) || !reader.ReadFloats(&p, size)) {
      return truncated();
    }
  }
  uint8_t has_best = 0;
  if (!reader.Read(&has_best)) return truncated();
  if (has_best != 0) {
    ckpt.best_params.resize(ckpt.params.size());
    for (size_t i = 0; i < ckpt.params.size(); ++i) {
      if (!reader.ReadFloats(&ckpt.best_params[i],
                             static_cast<int64_t>(ckpt.params[i].size()))) {
        return truncated();
      }
    }
  }
  uint8_t has_opt = 0;
  if (!reader.Read(&has_opt)) return truncated();
  if (has_opt != 0) {
    if (!reader.Read(&ckpt.opt_step_count)) return truncated();
    ckpt.opt_m.resize(ckpt.params.size());
    ckpt.opt_v.resize(ckpt.params.size());
    for (size_t i = 0; i < ckpt.params.size(); ++i) {
      const int64_t size = static_cast<int64_t>(ckpt.params[i].size());
      if (!reader.ReadFloats(&ckpt.opt_m[i], size) ||
          !reader.ReadFloats(&ckpt.opt_v[i], size)) {
        return truncated();
      }
    }
  }
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument("trailing bytes in checkpoint: " +
                                         path);
  }
  return ckpt;
}

}  // namespace explainti::core
