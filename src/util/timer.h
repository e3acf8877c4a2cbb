#ifndef EXPLAINTI_UTIL_TIMER_H_
#define EXPLAINTI_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace explainti::util {

/// Sentinel deadline meaning "never expires". Requests admitted without a
/// client deadline carry this value.
inline constexpr int64_t kNoDeadline = INT64_MAX;

/// Microseconds on the monotonic (steady) clock since an arbitrary but
/// process-stable epoch. All serving deadlines are expressed on this
/// clock: it never jumps backwards, so a deadline comparison is a single
/// integer compare regardless of NTP slews or wall-clock changes.
inline int64_t MonotonicNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic deadline `timeout_us` from now. Non-positive timeouts yield
/// kNoDeadline (no limit). Timeouts large enough that `now + timeout`
/// would overflow int64 saturate to kNoDeadline instead of wrapping
/// negative (a wrapped deadline would read as "expired in the distant
/// past" and shed every request carrying it).
inline int64_t DeadlineAfterUs(int64_t timeout_us) {
  if (timeout_us <= 0) return kNoDeadline;
  const int64_t now = MonotonicNowUs();
  if (timeout_us >= kNoDeadline - now) return kNoDeadline;
  return now + timeout_us;
}

/// Has `deadline_us` passed at `now_us` (default: now)? kNoDeadline never
/// expires.
inline bool DeadlineExpired(int64_t deadline_us,
                            int64_t now_us = MonotonicNowUs()) {
  return deadline_us != kNoDeadline && now_us >= deadline_us;
}

/// Monotonic wall-clock stopwatch used by the efficiency benchmarks
/// (Table V) and the trainer's per-epoch reporting.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace explainti::util

#endif  // EXPLAINTI_UTIL_TIMER_H_
