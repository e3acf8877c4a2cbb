#ifndef EXPLAINTI_UTIL_FAULT_INJECTION_H_
#define EXPLAINTI_UTIL_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/status.h"

namespace explainti::util::fault {

/// What an armed site does when it fires.
enum class FaultKind {
  kError,  ///< Production code receives an error Status.
  kNan,    ///< Caller poisons its values with NaNs.
};

/// Arms one named fault site. The schedule is deterministic: the site
/// fires on every `every_n`-th hit (1 = every hit) and disarms itself
/// after `max_fires` firings.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  StatusCode code = StatusCode::kIoError;
  std::string message = "injected fault";
  int every_n = 1;
  int max_fires = -1;  ///< -1 = unlimited.
};

/// Process-wide deterministic fault-injection registry.
///
/// Production code plants named sites — `FAULT_POINT("csv.read")`,
/// `ShouldInject("optimizer.step", FaultKind::kNan)` — that are inert
/// (one relaxed atomic load) until a test arms them. Tests arm a site,
/// run the pipeline, and assert the recovery path; `DisarmAll()` restores
/// normal operation. All scheduling is counter-based, so runs are
/// reproducible.
class FaultRegistry {
 public:
  /// The process-wide registry.
  static FaultRegistry& Instance();

  /// Arms (or re-arms, resetting counters) the site.
  void Arm(const std::string& site, FaultSpec spec);

  /// Disarms every site and clears all counters.
  void DisarmAll();

  /// Records a hit at `site`; returns the armed spec when the site fires
  /// this hit, nullopt otherwise. Unarmed sites return nullopt without
  /// taking the lock or counting.
  std::optional<FaultSpec> Check(const char* site);

  /// True when at least one site is armed (fast path gate).
  bool AnyArmed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

 private:
  FaultRegistry() = default;

  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    int64_t hits = 0;
    int64_t fires = 0;
  };

  std::mutex mu_;
  std::atomic<int> armed_count_{0};
  std::unordered_map<std::string, SiteState> sites_;
};

/// Status-returning fault point for `FaultKind::kError` sites. Returns the
/// armed error when the site fires, OK otherwise (and always OK when the
/// site is unarmed or armed with a different kind).
Status InjectionPoint(const char* site);

/// True when `site` is armed with `kind` and fires this hit.
bool ShouldInject(const char* site, FaultKind kind);

}  // namespace explainti::util::fault

/// Plants an error-injection site: `if (auto s = FAULT_POINT("x"); !s.ok())
/// return s;`. Inert until a test arms the site.
#define FAULT_POINT(site) ::explainti::util::fault::InjectionPoint(site)

#endif  // EXPLAINTI_UTIL_FAULT_INJECTION_H_
