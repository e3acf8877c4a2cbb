#include "tensor/workspace.h"

#include <vector>

#include "util/logging.h"

namespace explainti::tensor {

namespace {

/// The calling thread's scratch: one grow-only buffer and its counters.
/// Only its owner thread touches it (ScratchBuffers live on the stack),
/// so it needs no locking.
struct ThreadScratch {
  std::vector<float> buf;
  bool live = false;
  WorkspaceStats stats;
};

ThreadScratch& ThisThreadScratch() {
  static thread_local ThreadScratch scratch;
  return scratch;
}

}  // namespace

WorkspaceStats ThisThreadWorkspaceStats() { return ThisThreadScratch().stats; }

ScratchBuffer::ScratchBuffer(size_t n) : size_(n) {
  ThreadScratch& scratch = ThisThreadScratch();
  CHECK(!scratch.live) << "a second live ScratchBuffer on one thread would "
                          "alias the first";
  scratch.live = true;
  ++scratch.stats.buffer_acquires;
  if (n > scratch.buf.size()) {
    ++scratch.stats.buffer_misses;
    scratch.buf.resize(n);
  }
  data_ = scratch.buf.data();
}

ScratchBuffer::~ScratchBuffer() { ThisThreadScratch().live = false; }

}  // namespace explainti::tensor
