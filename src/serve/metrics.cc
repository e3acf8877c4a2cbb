#include "serve/metrics.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace explainti::serve {

Histogram::Histogram(std::vector<int64_t> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      buckets_(new std::atomic<int64_t>[upper_bounds_.size() + 1]) {
  CHECK(!upper_bounds_.empty()) << "histogram needs at least one bucket";
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    CHECK(upper_bounds_[i] > upper_bounds_[i - 1])
        << "histogram bounds must be strictly increasing";
  }
  for (size_t i = 0; i <= upper_bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<int64_t> Histogram::LatencyBucketsUs() {
  // 1us .. 10s, roughly x2 per bucket: fine resolution where serving
  // latencies actually land, bounded bucket count everywhere.
  return {1,      2,      5,      10,     20,      50,      100,
          200,    500,    1000,   2000,   5000,    10000,   20000,
          50000,  100000, 200000, 500000, 1000000, 2000000, 5000000,
          10000000};
}

std::vector<int64_t> Histogram::LinearBuckets(int64_t lo, int64_t step,
                                              int n) {
  CHECK(step > 0 && n > 0);
  std::vector<int64_t> bounds(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) bounds[static_cast<size_t>(i)] = lo + step * i;
  return bounds;
}

void Histogram::Record(int64_t value) {
  const auto it =
      std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(), value);
  const size_t idx = static_cast<size_t>(it - upper_bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const int64_t n = Count();
  return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> counts(upper_bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Percentile(double q) const {
  const std::vector<int64_t> counts = BucketCounts();
  int64_t total = 0;
  size_t populated = 0;
  size_t last_populated = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      ++populated;
      last_populated = i;
      total += counts[i];
    }
  }
  if (total == 0) return 0.0;  // Empty histogram: no data, report 0.

  // Bucket i spans (lo, hi]. The overflow bucket has no upper bound;
  // saturate it at the last configured bound rather than extrapolating
  // past the bucket array (an extrapolated "bound" reported latencies the
  // histogram never promised to resolve).
  auto bucket_lo = [&](size_t i) {
    return i == 0 ? 0.0 : static_cast<double>(upper_bounds_[i - 1]);
  };
  auto bucket_hi = [&](size_t i) {
    return i < upper_bounds_.size()
               ? static_cast<double>(upper_bounds_[i])
               : static_cast<double>(upper_bounds_.back());
  };

  // All mass in one bucket: the intra-bucket distribution is unknown, so
  // interpolation would fabricate spread (p1 near the lower bound, p99
  // near the upper, from identical samples). Report the bucket midpoint
  // for every quantile instead.
  if (populated == 1) {
    return 0.5 * (bucket_lo(last_populated) + bucket_hi(last_populated));
  }

  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(seen + counts[i]) >= rank) {
      // Linear interpolation inside the bucket [lo, hi].
      const double lo = bucket_lo(i);
      const double hi = bucket_hi(i);
      const double within = (rank - static_cast<double>(seen)) /
                            static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    seen += counts[i];
  }
  return static_cast<double>(upper_bounds_.back());
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(
    std::string_view name, const std::vector<int64_t>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return it->second.get();
}

Counter* CounterHandle::get() {
  Counter* counter = counter_.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = registry_->GetCounter(name_);
    counter_.store(counter, std::memory_order_release);
  }
  return counter;
}

Histogram* HistogramHandle::get() {
  Histogram* histogram = histogram_.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = registry_->GetHistogram(name_, upper_bounds_);
    histogram_.store(histogram, std::memory_order_release);
  }
  return histogram;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream json;
  json << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    json << (first ? "" : ", ") << "\"" << name << "\": " << counter->Value();
    first = false;
  }
  json << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    json << (first ? "" : ", ") << "\"" << name
         << "\": {\"count\": " << h->Count() << ", \"mean\": " << h->Mean()
         << ", \"p50\": " << h->Percentile(0.50)
         << ", \"p90\": " << h->Percentile(0.90)
         << ", \"p99\": " << h->Percentile(0.99) << "}";
    first = false;
  }
  json << "}}";
  return json.str();
}

}  // namespace explainti::serve
