#ifndef EXPLAINTI_SERVE_METRICS_H_
#define EXPLAINTI_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace explainti::serve {

/// Monotonically increasing counter. Updates are a single relaxed atomic
/// add — safe from any thread, never locks.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram for latency-like int64 samples.
///
/// Bucket upper bounds are fixed at construction; Record() is a binary
/// search plus three relaxed atomic adds (bucket count, total count,
/// sum), so concurrent recording never locks. Percentiles are estimated
/// from the bucket counts with linear interpolation inside the bucket —
/// exact enough for p50/p99 dashboards, cheap enough for per-request
/// recording.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit overflow
  /// bucket catches everything above the last bound.
  explicit Histogram(std::vector<int64_t> upper_bounds);

  /// Exponential 1us .. ~10s bounds, the default for latency histograms.
  static std::vector<int64_t> LatencyBucketsUs();
  /// Linear bounds {lo, lo+step, ...} with `n` buckets (for batch sizes).
  static std::vector<int64_t> LinearBuckets(int64_t lo, int64_t step, int n);

  void Record(int64_t value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// Estimated q-quantile (q in [0, 1]) from the bucket counts; 0 when
  /// empty, the (single) populated bucket's midpoint when all mass landed
  /// in one bucket, and bounded by the last configured bucket bound for
  /// overflow samples. A concurrent snapshot, not a linearizable one.
  double Percentile(double q) const;

  /// Per-bucket counts (one per upper bound, then the overflow bucket).
  std::vector<int64_t> BucketCounts() const;

 private:
  std::vector<int64_t> upper_bounds_;
  // One extra slot: the overflow bucket.
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Registry of named counters and histograms behind one mutex.
///
/// The hot path looks an instrument up once (CounterHandle,
/// HistogramHandle) and keeps the pointer, after which updates are pure
/// atomics; the lock is taken only by those first lookups and by ToJson,
/// so one lock suffices. Instruments live as long as the registry;
/// returned pointers are stable.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter named `name`, created on first use.
  Counter* GetCounter(std::string_view name);

  /// The histogram named `name`, created on first use with
  /// `upper_bounds` (ignored on later lookups).
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<int64_t>& upper_bounds);

  /// One JSON object with every instrument, names sorted, e.g.
  ///   {"counters": {"serve.completed": 42, ...},
  ///    "histograms": {"serve.e2e_us": {"count": 42, "mean": ...,
  ///                   "p50": ..., "p90": ..., "p99": ...}, ...}}
  /// A concurrent snapshot: each value is individually atomic.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  // Ordered by name, so ToJson lists them sorted.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// A counter named up front and resolved from its registry on first use,
/// then kept as a pointer: the hot path pays one atomic load instead of a
/// locked name lookup that builds a key string. Resolving on first use
/// rather than at construction keeps ToJson() listing exactly the
/// instruments that were touched. Concurrent first uses resolve to the
/// same instrument. `registry` must be non-null and outlive the handle.
class CounterHandle {
 public:
  CounterHandle(MetricsRegistry* registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}
  CounterHandle(const CounterHandle&) = delete;
  CounterHandle& operator=(const CounterHandle&) = delete;

  void Increment(int64_t n = 1) { get()->Increment(n); }
  /// The resolved counter, registered now if untouched.
  Counter* get();

 private:
  MetricsRegistry* const registry_;
  const std::string name_;
  std::atomic<Counter*> counter_{nullptr};
};

/// CounterHandle's histogram twin: the bucket bounds are built once, at
/// construction, and handed to the registry on first use.
class HistogramHandle {
 public:
  HistogramHandle(MetricsRegistry* registry, std::string name,
                  std::vector<int64_t> upper_bounds)
      : registry_(registry),
        name_(std::move(name)),
        upper_bounds_(std::move(upper_bounds)) {}
  HistogramHandle(const HistogramHandle&) = delete;
  HistogramHandle& operator=(const HistogramHandle&) = delete;

  void Record(int64_t value) { get()->Record(value); }
  /// The resolved histogram, registered now if untouched.
  Histogram* get();

 private:
  MetricsRegistry* const registry_;
  const std::string name_;
  const std::vector<int64_t> upper_bounds_;
  std::atomic<Histogram*> histogram_{nullptr};
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_METRICS_H_
