#ifndef EXPLAINTI_UTIL_RNG_H_
#define EXPLAINTI_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace explainti::util {

/// Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every stochastic component in this library (data generation, dropout,
/// neighbour sampling, weight init, judge noise) takes an explicit `Rng` or
/// seed so that tests and benchmark tables are reproducible run-to-run and
/// machine-to-machine. Not thread-safe; use one instance per thread.
class Rng {
 public:
  /// Seeds the generator; two Rngs with the same seed produce identical
  /// streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi]. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal deviate (Box-Muller).
  double Normal();

  /// Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.empty()) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap(items[i], items[j]);
    }
  }

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_RNG_H_
