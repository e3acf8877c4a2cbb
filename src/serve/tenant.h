#ifndef EXPLAINTI_SERVE_TENANT_H_
#define EXPLAINTI_SERVE_TENANT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/request.h"
#include "util/status.h"

namespace explainti::serve {

/// Per-tenant admission policy: a traffic class plus a token-bucket
/// quota. `quota_rps <= 0` means unlimited (no bucket; every request
/// admitted). `burst` is the bucket capacity — how far a tenant may
/// exceed its steady rate instantaneously; 0 defaults it to
/// max(quota_rps, 1), i.e. roughly one second of quota.
struct TenantOptions {
  std::string name = "default";
  Priority priority = Priority::kInteractive;
  double quota_rps = 0.0;  ///< Sustained tokens/second; <= 0 = unlimited.
  double burst = 0.0;      ///< Bucket capacity; 0 = max(quota_rps, 1).
};

/// Registry of serving tenants with token-bucket admission.
///
/// Register every tenant before serving starts (registration appends;
/// ids are dense and stable). Tenant 0 is pre-registered as the
/// unlimited, interactive "default" tenant so single-tenant callers work
/// untouched. Admit() is thread-safe and refills lazily from the
/// monotonic clock — no background refill thread: each call tops the
/// bucket up by elapsed_seconds * quota_rps (capped at burst) and then
/// spends one token, so a tenant sustained above its quota is rejected
/// with kResourceExhausted at admission time, before the request touches
/// the queue or any compute.
class TenantRegistry {
 public:
  TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Adds a tenant; returns its dense id. Register before the server
  /// starts taking traffic — ids handed to clients must already exist.
  int Register(TenantOptions options);

  /// Number of registered tenants (>= 1: the default tenant).
  int size() const;

  /// True when `tenant_id` names a registered tenant.
  bool Contains(int tenant_id) const;

  /// The registered options for `tenant_id`. Aborts on unknown ids —
  /// validate with Contains() first.
  const TenantOptions& options(int tenant_id) const;

  /// Spends one quota token for `tenant_id` at monotonic time `now_us`.
  /// Returns OK when admitted, kResourceExhausted when the bucket is
  /// empty (the tenant is over quota), kInvalidArgument for unknown ids.
  /// `now_us` is a parameter (not read internally) so tests can drive the
  /// refill clock without sleeping.
  util::Status Admit(int tenant_id, int64_t now_us);

 private:
  struct Tenant {
    TenantOptions options;
    double capacity = 0.0;  ///< Resolved burst.
    // Bucket state, guarded by `mu`. Separate per-tenant locks: one
    // tenant hammering its bucket never contends with another's path.
    mutable std::mutex mu;
    double tokens = 0.0;
    int64_t last_refill_us = 0;
  };

  // Guards the tenant list itself (registration); per-bucket state has
  // its own locks. Tenants are held by pointer so Register never moves
  // live bucket state.
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_TENANT_H_
