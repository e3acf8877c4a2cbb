#include "serve/tenant.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::serve {

TokenBucket::TokenBucket(const TenantOptions& options)
    : name_(options.name),
      quota_rps_(options.quota_rps),
      capacity_(options.burst > 0.0 ? options.burst
                                    : std::max(options.quota_rps, 1.0)),
      tokens_(capacity_) {}  // Buckets start full.

util::Status TokenBucket::Admit(int64_t now_us) {
  if (quota_rps_ <= 0.0) return util::Status::OK();

  std::lock_guard<std::mutex> lock(mu_);
  if (last_refill_us_ == 0) last_refill_us_ = now_us;
  const int64_t elapsed_us = std::max<int64_t>(0, now_us - last_refill_us_);
  last_refill_us_ = now_us;
  tokens_ = std::min(capacity_, tokens_ + static_cast<double>(elapsed_us) *
                                              1e-6 * quota_rps_);
  if (tokens_ < 1.0) {
    return util::Status::ResourceExhausted(
        "tenant '" + name_ + "' over quota (" + std::to_string(quota_rps_) +
        " rps)");
  }
  tokens_ -= 1.0;
  return util::Status::OK();
}

TenantRegistry::TenantRegistry() {
  Register(TenantOptions{});  // Tenant 0: unlimited interactive default.
}

int TenantRegistry::Register(TenantOptions options) {
  tenants_.push_back(std::move(options));
  return static_cast<int>(tenants_.size()) - 1;
}

int TenantRegistry::size() const { return static_cast<int>(tenants_.size()); }

const TenantOptions& TenantRegistry::options(int tenant_id) const {
  CHECK(tenant_id >= 0 && tenant_id < size())
      << "unknown tenant id " << tenant_id;
  return tenants_[static_cast<size_t>(tenant_id)];
}

}  // namespace explainti::serve
