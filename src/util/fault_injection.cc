#include "util/fault_injection.h"

namespace explainti::util::fault {

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Arm(const std::string& site, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& state = sites_[site];
  if (!state.armed) armed_count_.fetch_add(1, std::memory_order_relaxed);
  state.spec = std::move(spec);
  state.armed = true;
  state.hits = 0;
  state.fires = 0;
}

void FaultRegistry::Disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultRegistry::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

std::optional<FaultSpec> FaultRegistry::Check(const char* site) {
  if (!AnyArmed()) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return std::nullopt;
  SiteState& state = it->second;
  ++state.hits;
  const int every_n = state.spec.every_n > 0 ? state.spec.every_n : 1;
  if (state.hits % every_n != 0) return std::nullopt;
  ++state.fires;
  FaultSpec fired = state.spec;
  if (state.spec.max_fires >= 0 && state.fires >= state.spec.max_fires) {
    state.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  return fired;
}

int64_t FaultRegistry::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

int64_t FaultRegistry::fires(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

Status InjectionPoint(const char* site) {
  FaultRegistry& registry = FaultRegistry::Instance();
  if (!registry.AnyArmed()) return Status::OK();
  std::optional<FaultSpec> fired = registry.Check(site);
  if (!fired.has_value() || fired->kind != FaultKind::kError) {
    return Status::OK();
  }
  return Status(fired->code,
                fired->message + " [injected at " + site + "]");
}

bool ShouldInject(const char* site, FaultKind kind) {
  FaultRegistry& registry = FaultRegistry::Instance();
  if (!registry.AnyArmed()) return false;
  std::optional<FaultSpec> fired = registry.Check(site);
  return fired.has_value() && fired->kind == kind;
}

}  // namespace explainti::util::fault
