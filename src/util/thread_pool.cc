#include "util/thread_pool.h"

#include <cstdlib>
#include <memory>
#include <string>

namespace explainti::util {

namespace {

/// Set while the current thread is executing chunks of a region (worker
/// or participating caller); nested ParallelFor calls then run inline.
thread_local bool tl_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || generation_ != seen_generation;
    });
    if (stop_) return;
    seen_generation = generation_;
    lock.unlock();
    tl_in_parallel_region = true;
    RunChunks();
    tl_in_parallel_region = false;
    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::RunChunks() {
  for (;;) {
    const int64_t chunk = next_chunk_.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= num_chunks_) return;
    const int64_t chunk_begin = begin_ + chunk * chunk_size_;
    int64_t chunk_end = chunk_begin + chunk_size_;
    if (chunk_end > end_) chunk_end = end_;
    try {
      (*fn_)(chunk_begin, chunk_end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  const int64_t n = end - begin;
  // Serial paths: single-participant pool, single index, or a nested
  // region (the chunk contract makes inline execution equivalent).
  if (workers_.empty() || n <= 1 || tl_in_parallel_region) {
    fn(begin, end);
    return;
  }

  // Static chunking: boundaries depend only on range and pool size.
  // Workers pick chunks dynamically, which is safe because chunks are
  // independent by contract.
  std::lock_guard<std::mutex> region(region_mu_);
  const int64_t participants = static_cast<int64_t>(workers_.size()) + 1;
  const int64_t chunk_size = (n + participants - 1) / participants;
  const int64_t num_chunks = (n + chunk_size - 1) / chunk_size;

  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    begin_ = begin;
    end_ = end;
    chunk_size_ = chunk_size;
    num_chunks_ = num_chunks;
    next_chunk_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    active_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();

  tl_in_parallel_region = true;
  RunChunks();
  tl_in_parallel_region = false;

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int ConfiguredThreadCount() {
  if (const char* env = std::getenv("EXPLAINTI_NUM_THREADS")) {
    char* parse_end = nullptr;
    const long value = std::strtol(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && value > 0 &&
        value <= 1024) {
      return static_cast<int>(value);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

std::mutex g_pool_mu;
ThreadPool* g_pool = nullptr;  // Intentionally leaked at exit.

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) g_pool = new ThreadPool(ConfiguredThreadCount());
  return *g_pool;
}

void SetGlobalThreadCount(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  delete g_pool;  // Joins workers; callers must not be mid-region.
  g_pool = new ThreadPool(num_threads);
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (begin >= end) return;
  // Inline fast path: a single index never touches the pool or its lock.
  if (end - begin <= 1) {
    fn(begin, end);
    return;
  }
  GlobalThreadPool().ParallelFor(begin, end, fn);
}

}  // namespace explainti::util
