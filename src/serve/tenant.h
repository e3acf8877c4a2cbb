#ifndef EXPLAINTI_SERVE_TENANT_H_
#define EXPLAINTI_SERVE_TENANT_H_

#include <cstdint>
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

/// One tenant's quota: a token bucket that starts full and refills lazily
/// from the caller's monotonic clock — no background refill thread. Each
/// Admit tops the bucket up by elapsed_seconds * quota_rps (capped at the
/// burst) and then spends one token, so a tenant sustained above its
/// quota is rejected with kResourceExhausted at admission time, before
/// the request touches the queue or any compute. Thread-safe.
class TokenBucket {
 public:
  explicit TokenBucket(const TenantOptions& options);

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Spends one token at monotonic time `now_us`: OK when admitted,
  /// kResourceExhausted when the bucket is empty. `now_us` is a parameter
  /// (not read internally) so tests can drive the refill clock without
  /// sleeping.
  util::Status Admit(int64_t now_us);

 private:
  const std::string name_;
  const double quota_rps_;
  const double capacity_;  ///< Resolved burst.
  std::mutex mu_;
  double tokens_;  // Guarded by mu_, like last_refill_us_.
  int64_t last_refill_us_ = 0;
};

/// The serving tenants, as dense ids over their options. Tenant 0 is
/// pre-registered as the unlimited, interactive "default" tenant so
/// single-tenant callers work untouched.
///
/// A server reads the registry once, when it is constructed, and builds
/// its own table of each tenant's class, bucket and counters from it:
/// register every tenant first. The registry is not thread-safe and
/// holds no quota state.
class TenantRegistry {
 public:
  TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Adds a tenant; returns its dense id.
  int Register(TenantOptions options);

  /// Number of registered tenants (>= 1: the default tenant).
  int size() const;

  /// The registered options for `tenant_id`; aborts on unknown ids.
  const TenantOptions& options(int tenant_id) const;

 private:
  std::vector<TenantOptions> tenants_;
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_TENANT_H_
