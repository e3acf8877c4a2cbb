#ifndef EXPLAINTI_UTIL_THREAD_POOL_H_
#define EXPLAINTI_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace explainti::util {

/// Fixed-size worker pool with a deterministic `ParallelFor` primitive.
///
/// Execution model (see DESIGN.md "Execution model"):
///  - A pool of `num_threads` participants: `num_threads - 1` background
///    workers plus the calling thread, which always takes part in its own
///    parallel regions. `ThreadPool(1)` spawns nothing and runs every
///    region inline.
///  - `ParallelFor(begin, end, fn)` partitions `[begin, end)` into
///    contiguous chunks of ceil(n / participants) indices (the last may be
///    shorter). Chunk *boundaries* are a pure function of (range, pool
///    size) — never of timing — and `fn(chunk_begin, chunk_end)` must
///    write only outputs owned by the indices it was handed. Under that
///    contract every result is bit-identical run-to-run and across pool
///    sizes; which thread runs which chunk is the only scheduling freedom.
///  - Nested regions degrade to inline execution: a `ParallelFor` issued
///    from inside a worker (or from the caller's own chunk) runs serially
///    on that thread, so callees can parallelise unconditionally.
///  - The first exception thrown by `fn` is captured and rethrown on the
///    calling thread once the region has quiesced; remaining chunks still
///    run (chunks are independent by contract, so there is nothing to
///    unwind).
///
/// One region executes at a time per pool; concurrent top-level callers
/// serialise on an internal mutex. Destruction joins all workers.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` total participants (clamped to at
  /// least 1). `num_threads - 1` background workers are spawned.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers.
  ~ThreadPool();

  /// Runs `fn(chunk_begin, chunk_end)` over `[begin, end)`; see class
  /// comment for the determinism contract. Empty ranges are a no-op.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  void WorkerLoop();
  void RunChunks();

  std::vector<std::thread> workers_;

  // Region state; valid while a region is in flight. Guarded by mu_
  // except the atomic chunk cursor.
  std::mutex region_mu_;  // Serialises top-level ParallelFor callers.
  std::mutex mu_;
  std::condition_variable work_cv_;   // Wakes workers on a new region.
  std::condition_variable done_cv_;   // Wakes the caller on completion.
  uint64_t generation_ = 0;
  int active_workers_ = 0;
  bool stop_ = false;

  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t begin_ = 0;
  int64_t end_ = 0;
  int64_t chunk_size_ = 1;
  int64_t num_chunks_ = 0;
  std::atomic<int64_t> next_chunk_{0};
  std::exception_ptr first_error_;
};

/// Thread count configured for this process: `EXPLAINTI_NUM_THREADS` when
/// set to a positive integer, otherwise the hardware concurrency (at
/// least 1). Read once per call; the global pool samples it lazily.
int ConfiguredThreadCount();

/// The process-wide pool used by the free `ParallelFor`. Created lazily
/// with `ConfiguredThreadCount()` threads on first use.
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` participants.
/// Intended for tests and benchmarks that sweep thread counts; must only
/// be called while no other thread is inside `ParallelFor`.
void SetGlobalThreadCount(int num_threads);

/// `GlobalThreadPool().ParallelFor(...)`, with a fast inline path for
/// single-index ranges (no pool lookup, no locking).
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn);

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_THREAD_POOL_H_
