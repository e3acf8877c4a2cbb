#include "tensor/workspace.h"

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace explainti::tensor {

namespace {

// Buffers are pooled in power-of-two capacity buckets; bucket b holds
// vectors with capacity 2^b. Caps bound a workspace's footprint: anything
// beyond them falls back to the regular heap.
constexpr int kNumBuckets = 31;
constexpr size_t kMaxBuffersPerBucket = 256;

// Smallest b with (1 << b) >= n, for n >= 1.
int BucketForAtLeast(size_t n) {
  return n <= 1 ? 0 : static_cast<int>(std::bit_width(n - 1));
}

// Largest b with (1 << b) <= cap, for cap >= 1.
int BucketForCapacity(size_t cap) {
  return static_cast<int>(std::bit_width(cap)) - 1;
}

/// Per-thread recycling pool for ScratchBuffers. Never touched by any
/// thread other than its owner (ScratchBuffers live on the stack), so it
/// needs no locking.
class Workspace {
 public:
  WorkspaceStats stats;

  /// Returns a vector with capacity >= 2^ceil(log2(n)) when pooled. The
  /// caller sets the size; pooled vectors keep whatever size they were
  /// released with, so a shrinking resize() does no element writes.
  std::vector<float> AcquireBuffer(size_t n) {
    ++stats.buffer_acquires;
    const int b = BucketForAtLeast(n);
    if (b < kNumBuckets && !buckets_[b].empty()) {
      std::vector<float> buf = std::move(buckets_[b].back());
      buckets_[b].pop_back();
      return buf;
    }
    ++stats.buffer_misses;
    std::vector<float> buf;
    if (b < kNumBuckets) buf.reserve(size_t{1} << b);
    return buf;
  }

  void ReleaseBuffer(std::vector<float>&& buf) {
    if (buf.capacity() == 0) return;
    const int b = BucketForCapacity(buf.capacity());
    if (b < kNumBuckets && buckets_[b].size() < kMaxBuffersPerBucket) {
      buckets_[b].push_back(std::move(buf));
    }
    // Else: dropped; the vector's destructor frees it.
  }

 private:
  std::vector<std::vector<float>> buckets_[kNumBuckets];
};

Workspace& ThisWorkspace() {
  static thread_local Workspace workspace;
  return workspace;
}

}  // namespace

WorkspaceStats ThisThreadWorkspaceStats() { return ThisWorkspace().stats; }

ScratchBuffer::ScratchBuffer(size_t n) : buf_(ThisWorkspace().AcquireBuffer(n)) {
  // A shrinking resize writes nothing; a growing one value-fills only the
  // tail beyond the pooled vector's previous size. Steady state (same
  // sample shape, warmed pool) is a same-size no-op.
  buf_.resize(n);
}

ScratchBuffer::~ScratchBuffer() { ThisWorkspace().ReleaseBuffer(std::move(buf_)); }

}  // namespace explainti::tensor
