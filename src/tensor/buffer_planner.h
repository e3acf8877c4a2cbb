#ifndef EXPLAINTI_TENSOR_BUFFER_PLANNER_H_
#define EXPLAINTI_TENSOR_BUFFER_PLANNER_H_

#include <cstdint>
#include <vector>

namespace explainti::tensor {

/// One logical intermediate of a linearized plan: its element count and
/// its liveness interval over the instruction stream.
/// `first_def` is the index of the instruction that writes it;
/// `last_use` the index of the last instruction reading it (inclusive).
/// A buffer that must survive the whole program (a plan output) simply
/// sets `last_use` past the last instruction.
struct PlannedBuffer {
  int64_t size = 0;  ///< Element count.
  int32_t first_def = 0;
  int32_t last_use = 0;
};

/// Fixed element offsets for every logical buffer inside one flat arena.
struct BufferPlan {
  std::vector<int64_t> offsets;  ///< Elements; parallel to the input buffers.
  int64_t arena_size = 0;        ///< Total elements required.
};

/// Assigns each logical buffer a fixed element offset in a single flat
/// arena, reusing storage between buffers whose liveness intervals do
/// not overlap. Greedy first-fit in declaration order: deterministic,
/// and on the encoder's ping-pong access pattern within ~10% of optimal
/// — the point is that the plan executor never allocates, not a perfect
/// packing. Offsets are aligned to `alignment` elements (default 16
/// floats == 64 bytes == one cache line) so vectorized kernels start
/// aligned.
BufferPlan PlanBufferOffsets(const std::vector<PlannedBuffer>& buffers,
                             int64_t alignment = 16);

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_BUFFER_PLANNER_H_
