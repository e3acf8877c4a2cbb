#ifndef EXPLAINTI_TENSOR_WORKSPACE_H_
#define EXPLAINTI_TENSOR_WORKSPACE_H_

#include <cstddef>
#include <cstdint>

namespace explainti::tensor {

/// Counters for the calling thread's scratch buffer. An "acquire" is a
/// ScratchBuffer constructed on the thread; a "miss" is an acquire that
/// had to grow the thread's buffer on the heap. Steady state on a
/// warmed-up thread is acquires advancing with zero new misses: no
/// scratch heap allocations.
struct WorkspaceStats {
  int64_t buffer_acquires = 0;
  int64_t buffer_misses = 0;
};

/// Snapshot of the calling thread's scratch counters.
WorkspaceStats ThisThreadWorkspaceStats();

/// RAII raw float scratch backed by the calling thread's one grow-only
/// buffer: each InferenceSession call takes its whole working set, the
/// encoder's included, as one ScratchBuffer, so once a thread has served
/// its largest call it performs zero scratch heap allocations. The buffer
/// grows only when `n` exceeds its size and is never shrunk or written by
/// the constructor, so contents are uninitialised (whatever an earlier
/// call left). At most one ScratchBuffer may be live per thread, since a
/// second would alias the first; constructing one while another is live
/// aborts. Stack use only: destroy it on the thread that created it.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(size_t n);
  ~ScratchBuffer();
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  float* data() { return data_; }
  size_t size() const { return size_; }

 private:
  float* data_;
  size_t size_;
};

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_WORKSPACE_H_
