#include "tensor/buffer_planner.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::tensor {

namespace {

int64_t AlignUp(int64_t v, int64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

}  // namespace

BufferPlan PlanBufferOffsets(const std::vector<PlannedBuffer>& buffers,
                             int64_t alignment) {
  CHECK_GT(alignment, 0);
  BufferPlan plan;
  plan.offsets.assign(buffers.size(), 0);

  // Greedy first-fit: place buffers in declaration order; a candidate
  // offset is valid when the new extent overlaps no already-placed buffer
  // whose liveness interval intersects this one. O(n^2) placements with
  // O(n) conflict scans — plans have a few dozen intermediates, so
  // clarity beats an interval tree here.
  struct Placed {
    int64_t begin, end;       // Arena extent [begin, end).
    int32_t first, last;      // Liveness (inclusive).
  };
  std::vector<Placed> placed;
  placed.reserve(buffers.size());

  for (size_t i = 0; i < buffers.size(); ++i) {
    const PlannedBuffer& buf = buffers[i];
    CHECK_GT(buf.size, 0) << "buffer " << i << " has no extent";
    CHECK_LE(buf.first_def, buf.last_use) << "buffer " << i << " dies "
                                             "before it is defined";
    const int64_t size = AlignUp(buf.size, alignment);

    // Candidate offsets: 0 and the end of every live-conflicting placed
    // buffer. The smallest candidate where the extent is conflict-free
    // wins.
    std::vector<int64_t> candidates;
    candidates.push_back(0);
    for (const Placed& p : placed) {
      if (p.last < buf.first_def || p.first > buf.last_use) continue;
      candidates.push_back(p.end);
    }
    std::sort(candidates.begin(), candidates.end());

    int64_t offset = -1;
    for (int64_t cand : candidates) {
      bool conflict = false;
      for (const Placed& p : placed) {
        const bool lifetimes_overlap =
            !(p.last < buf.first_def || p.first > buf.last_use);
        const bool extents_overlap = cand < p.end && p.begin < cand + size;
        if (lifetimes_overlap && extents_overlap) {
          conflict = true;
          break;
        }
      }
      if (!conflict) {
        offset = cand;
        break;
      }
    }
    CHECK_GE(offset, 0);  // Candidate list always contains a free slot.

    plan.offsets[i] = offset;
    placed.push_back(
        {offset, offset + size, buf.first_def, buf.last_use});
    plan.arena_size = std::max(plan.arena_size, offset + size);
  }
  return plan;
}

}  // namespace explainti::tensor
