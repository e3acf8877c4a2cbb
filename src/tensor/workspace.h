#ifndef EXPLAINTI_TENSOR_WORKSPACE_H_
#define EXPLAINTI_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace explainti::tensor {

/// Counters for the calling thread's Workspace buffer pool. An "acquire"
/// is a ScratchBuffer served by the pool; a "miss" is an acquire that had
/// to fall back to the heap (cold pool). Steady state on a warmed-up
/// thread is acquires advancing with zero new misses: no scratch heap
/// allocations.
struct WorkspaceStats {
  int64_t buffer_acquires = 0;
  int64_t buffer_misses = 0;
};

/// Snapshot of the calling thread's pool counters.
WorkspaceStats ThisThreadWorkspaceStats();

/// RAII raw float scratch drawn from the calling thread's Workspace
/// buffer pool: each InferenceSession call acquires its whole working
/// set, the encoder's included, as one ScratchBuffer, so warmed-up
/// serving performs zero scratch heap allocations. Contents are
/// uninitialised (beyond what the pooled vector happened to hold); the
/// buffer returns to the pool on destruction. Must be destroyed on the
/// thread that created it (stack use only).
class ScratchBuffer {
 public:
  explicit ScratchBuffer(size_t n);
  ~ScratchBuffer();
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  float* data() { return buf_.data(); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<float> buf_;
};

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_WORKSPACE_H_
