#include "serve/tenant.h"

#include <algorithm>

#include "util/logging.h"

namespace explainti::serve {

TenantRegistry::TenantRegistry() {
  Register(TenantOptions{});  // Tenant 0: unlimited interactive default.
}

int TenantRegistry::Register(TenantOptions options) {
  auto tenant = std::make_unique<Tenant>();
  tenant->capacity = options.burst > 0.0
                         ? options.burst
                         : std::max(options.quota_rps, 1.0);
  tenant->tokens = tenant->capacity;  // Buckets start full.
  tenant->options = std::move(options);
  std::lock_guard<std::mutex> lock(mu_);
  tenants_.push_back(std::move(tenant));
  return static_cast<int>(tenants_.size()) - 1;
}

int TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(tenants_.size());
}

bool TenantRegistry::Contains(int tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenant_id >= 0 && tenant_id < static_cast<int>(tenants_.size());
}

const TenantOptions& TenantRegistry::options(int tenant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK(tenant_id >= 0 && tenant_id < static_cast<int>(tenants_.size()))
      << "unknown tenant id " << tenant_id;
  return tenants_[static_cast<size_t>(tenant_id)]->options;
}

util::Status TenantRegistry::Admit(int tenant_id, int64_t now_us) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenant_id < 0 || tenant_id >= static_cast<int>(tenants_.size())) {
      return util::Status::InvalidArgument(
          "unknown tenant id " + std::to_string(tenant_id));
    }
    tenant = tenants_[static_cast<size_t>(tenant_id)].get();
  }
  if (tenant->options.quota_rps <= 0.0) return util::Status::OK();

  std::lock_guard<std::mutex> lock(tenant->mu);
  if (tenant->last_refill_us == 0) tenant->last_refill_us = now_us;
  const int64_t elapsed_us = std::max<int64_t>(0, now_us - tenant->last_refill_us);
  tenant->last_refill_us = now_us;
  tenant->tokens = std::min(
      tenant->capacity,
      tenant->tokens + static_cast<double>(elapsed_us) * 1e-6 *
                           tenant->options.quota_rps);
  if (tenant->tokens < 1.0) {
    return util::Status::ResourceExhausted(
        "tenant '" + tenant->options.name + "' over quota (" +
        std::to_string(tenant->options.quota_rps) + " rps)");
  }
  tenant->tokens -= 1.0;
  return util::Status::OK();
}

}  // namespace explainti::serve
