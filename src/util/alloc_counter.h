#ifndef EXPLAINTI_UTIL_ALLOC_COUNTER_H_
#define EXPLAINTI_UTIL_ALLOC_COUNTER_H_

#include <cstdint>

namespace explainti::util {

/// Per-thread heap-allocation counters.
///
/// alloc_counter.cc replaces the global `operator new` / `operator delete`
/// family with counting versions that delegate to malloc/free, so any
/// binary that links this translation unit (i.e. references any symbol
/// below) observes every C++ heap allocation made on the calling thread —
/// including the ones inside std::vector and std::shared_ptr that the
/// tensor layer is built from. Binaries that never reference these
/// symbols keep the default operators; the archive member is simply not
/// pulled in.
///
/// This exists to *measure*, not to speed anything up: the zero-alloc
/// tests and bench_inference_session use it to prove that warmed-up
/// serving calls take all their scratch from the per-thread Workspace
/// pool and that the heap traffic left (result vectors, explanation
/// records) is exactly repeatable.
struct AllocCounts {
  int64_t allocations = 0;  // operator new / new[] calls.
  int64_t frees = 0;        // operator delete / delete[] calls.
  int64_t bytes = 0;        // Total bytes requested from operator new.
};

/// Counters for the calling thread since it started.
AllocCounts ThisThreadAllocCounts();

/// Convenience scope: Delta() = calling thread's counters since
/// construction. Counting is always on; this only subtracts a baseline.
class ScopedAllocCounter {
 public:
  ScopedAllocCounter() : start_(ThisThreadAllocCounts()) {}

  AllocCounts Delta() const {
    const AllocCounts now = ThisThreadAllocCounts();
    return {now.allocations - start_.allocations, now.frees - start_.frees,
            now.bytes - start_.bytes};
  }

 private:
  AllocCounts start_;
};

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_ALLOC_COUNTER_H_
