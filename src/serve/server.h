#ifndef EXPLAINTI_SERVE_SERVER_H_
#define EXPLAINTI_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/inference_session.h"
#include "qa/engine.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/tenant.h"
#include "util/status.h"

namespace explainti::serve {

/// Table-QA serving: when enabled the server builds one qa::QaEngine per
/// generation (the surrogate, when armed in `options`, is distilled from
/// that generation's session — a hot-swap re-distils from the replacement
/// BEFORE the atomic redirect, so the old generation serves throughout)
/// and accepts ServeMethod::kQaAnswer requests. Disabled by default: QA
/// requests are rejected with kInvalidArgument at admission.
struct QaServeOptions {
  bool enabled = false;
  qa::QaOptions options;
};

/// Server shape: worker count plus the admission/batching/caching knobs.
struct ServerOptions {
  /// Worker threads executing coalesced batches. 0 is allowed (no
  /// execution happens; tests drive ExecuteBatch directly and Shutdown
  /// fails whatever is still queued).
  int num_workers = 2;
  BatcherOptions batcher;
  /// Response cache; disabled by default (opt-in, see CacheOptions).
  CacheOptions cache;
  /// Tenant quota/priority table. Null (the default) serves everything
  /// as one anonymous unlimited tenant — the pre-tenancy behaviour.
  /// Read once, at construction: the server builds its own table of each
  /// registered tenant's class, token bucket and counters, so a tenant
  /// registered later is rejected as unknown, and the registry need not
  /// outlive the server (the server keeps no pointer to it).
  TenantRegistry* tenants = nullptr;
  /// Table-QA method + surrogate cascade (see QaServeOptions).
  QaServeOptions qa;
};

/// Every server-wide instrument the admission and batch paths update,
/// each resolved from the registry once (on first use, see
/// CounterHandle) instead of looked up by name per event.
struct ServeMetrics {
  explicit ServeMetrics(MetricsRegistry* registry);

  // Admission, swap and shutdown.
  CounterHandle accepted, qa_accepted, cache_hits, rejected_invalid,
      rejected_quota, rejected_queue_full, rejected_shutdown, preempted,
      swaps;
  // Batch execution.
  CounterHandle deadline_expired, rejected_stale, batches, completed;
  HistogramHandle queue_wait_us, e2e_us, batch_size;
  // Table-QA answers.
  CounterHandle qa_failed, qa_answered, qa_surrogate_answered, qa_escalated;
  HistogramHandle qa_surrogate_us, qa_teacher_us;
};

/// Dynamic micro-batching inference server over frozen
/// core::InferenceSession generations.
///
///   clients --Submit/ServeSync--> [tenant table] -> [validate + hash
///                                  SampleIdsOf] -> [response cache]
///                                        | miss
///                                        v
///                                 [bounded admission queue]
///                                        | coalesce (method, task),
///                                        | priority-lead, expire,
///                                        | preempt low classes
///                                        v
///                                  MicroBatcher::PopBatch
///                                        |
///                  +---------------------+--------------------+
///                  v                     v                    v
///              worker 0              worker 1   ...       worker N-1
///         (pin current generation -> ExecuteBatch: batched
///          InferenceSession entry points; each per-sample call runs
///          the straight-line RunTail on per-thread scratch)
///
/// Admission control: Submit validates the request and rejects
/// immediately — kInvalidArgument for an unknown task, tenant or sample,
/// kResourceExhausted when the tenant is over quota or the bounded queue
/// is full with no lower-priority victim (load shedding, not buffering),
/// kFailedPrecondition after Shutdown. One rule covers every method: the
/// ids SampleIdsOf names are what admission range-checks and hashes and
/// what a batch re-checks on the generation it executes on. Accepted
/// requests are guaranteed exactly one completion callback: a served (OK
/// or kDeadlineExceeded) response from a worker, an OK cache-hit response
/// inline from Submit, a kResourceExhausted response when preempted by a
/// higher-priority arrival, a kFailedPrecondition response when a
/// hot-swap invalidated the request (task/sample gone on the new
/// generation) while it was queued, or — only when num_workers == 0 — a
/// kFailedPrecondition response from Shutdown.
///
/// Hot swap: SwapSession atomically redirects workers to a new frozen
/// session via a generation pointer. Batches in flight finish on the
/// generation they started with (a batch never observes two sessions —
/// no torn reads), the swap blocks until the old generation has fully
/// drained — Submit pins the generation while it validates and hashes,
/// so the drain covers in-flight admissions too — and the response
/// cache is invalidated before new-generation traffic can be served
/// stale entries. No accepted request is dropped by a swap: a queued
/// request the new generation cannot serve (task/sample gone) completes
/// with kFailedPrecondition at dispatch instead of executing.
///
/// Results are bit-identical to calling the InferenceSession directly:
/// batching and caching change scheduling, never numerics (golden-tested
/// in tests/serve_test.cc).
class InferenceServer {
 public:
  /// `session` must outlive the server (or its replacement via
  /// SwapSession — after a successful swap the old session may be
  /// destroyed). `metrics` may be null, in which case the server owns a
  /// private registry; pass a shared registry to aggregate several
  /// servers into one exporter.
  explicit InferenceServer(const core::InferenceSession& session,
                           const ServerOptions& options = {},
                           MetricsRegistry* metrics = nullptr);

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Drains and joins (Shutdown()).
  ~InferenceServer();

  /// Admits one request. On a non-OK return the callback will never be
  /// invoked; on OK it is invoked exactly once (from a worker thread, or
  /// inline when the response cache answers).
  util::Status Submit(ServeRequest request, ServeCallback on_done);

  /// Blocking convenience: admits `request` and waits for its response.
  /// Rejections come back as a response with the rejecting status.
  ServeResponse ServeSync(ServeRequest request);

  /// Zero-drop model hot-swap: redirects all future batches to `next`
  /// and blocks until every batch in flight on the previous generation
  /// has completed, so the caller may free the old model as soon as this
  /// returns OK. The response cache (if any) is cleared on success.
  /// Serving continues throughout — admissions are never paused, and no
  /// accepted request is dropped or served from a torn state. Returns
  /// kFailedPrecondition after Shutdown.
  util::Status SwapSession(const core::InferenceSession& next);

  /// Generation currently serving (1 = the constructor session; each
  /// successful SwapSession increments it). Responses echo the
  /// generation that computed them in ServeResponse::model_generation.
  uint64_t current_generation() const;

  /// Graceful drain: closes admissions, serves every already-accepted
  /// request, then joins the workers. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  MetricsRegistry& metrics() { return *metrics_; }
  const MicroBatcher& batcher() const { return batcher_; }
  /// The current generation's QA engine (for tests and cascade telemetry
  /// inspection); null when ServerOptions::qa is off. Borrowed — valid
  /// until the next successful SwapSession retires the generation.
  const qa::QaEngine* qa_engine() const;

  /// Executes one coalesced batch (all entries batch-compatible) against
  /// `session` and completes every request: the worker-loop body, public
  /// so tests and benches can drive it on their own thread (e.g. the
  /// steady-state zero-alloc assertion). `metrics` may be null (nothing
  /// is recorded). Each response carries `generation`, and OK results go
  /// into `cache` when it is non-null. `qa_engine` answers kQaAnswer
  /// entries (each completed individually — one bad query fails alone
  /// with a typed status, never the batch); null rejects QA entries with
  /// kFailedPrecondition.
  static void ExecuteBatch(const core::InferenceSession& session,
                           std::vector<PendingRequest>& batch,
                           ServeMetrics* metrics,
                           ResponseCache* cache = nullptr,
                           uint64_t generation = 0,
                           const qa::QaEngine* qa_engine = nullptr);

  /// Completes `expired` requests with kDeadlineExceeded (no compute).
  /// `metrics` may be null.
  static void FailExpired(std::vector<PendingRequest>& expired,
                          ServeMetrics* metrics);

 private:
  /// One serving generation: a frozen session plus the count of batches
  /// currently executing against it. Workers pin the generation for the
  /// duration of one batch; SwapSession waits for in_flight to reach
  /// zero before declaring the old generation drained.
  struct Generation {
    const core::InferenceSession* session = nullptr;
    /// Per-generation QA engine (null when ServerOptions::qa is off); its
    /// surrogate is distilled from `session`, so it retires with it.
    std::unique_ptr<qa::QaEngine> qa_engine;
    uint64_t id = 0;
    std::atomic<int64_t> in_flight{0};
  };

  void WorkerLoop();
  /// Pins the current generation for one batch (increments in_flight).
  std::shared_ptr<Generation> PinGeneration();
  /// Releases a pinned generation and wakes any waiting swap.
  void UnpinGeneration(const std::shared_ptr<Generation>& generation);
  /// Fails `victims` (preempted by a higher-priority arrival) with
  /// kResourceExhausted and records per-tenant shed counters.
  void FailPreempted(std::vector<PendingRequest>& victims);
  /// One registered tenant as resolved at construction: its traffic
  /// class, its quota bucket and its counters
  /// "serve.tenant.<name>.<what>".
  struct Tenant {
    Tenant(MetricsRegistry* registry, const TenantOptions& options);
    const Priority priority;
    TokenBucket bucket;
    CounterHandle accepted, qa_accepted, rejected_quota, rejected_queue_full,
        preempted;
  };
  // `options` as constructed, minus the `tenants` pointer (see tenants_).
  const ServerOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_;
  ServeMetrics serve_metrics_;
  // One entry per tenant registered at construction, indexed by id;
  // empty when the server runs without a TenantRegistry.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::unique_ptr<ResponseCache> cache_;  // Null when disabled.
  MicroBatcher batcher_;
  std::vector<std::thread> workers_;

  // Generation pointer: guarded by gen_mu_; swapped by SwapSession,
  // pinned per batch by workers. gen_cv_ signals in_flight drains.
  mutable std::mutex gen_mu_;
  std::condition_variable gen_cv_;
  std::shared_ptr<Generation> current_;

  // Serialises SwapSession callers: one rollout at a time.
  std::mutex swap_mu_;
  // Set at the start of Shutdown so SwapSession can refuse without
  // contending on shutdown_mu_ (held across the worker join).
  std::atomic<bool> stopping_{false};

  std::mutex shutdown_mu_;
  bool stopped_ = false;  // Guarded by shutdown_mu_.
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_SERVER_H_
