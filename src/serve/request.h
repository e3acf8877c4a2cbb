#ifndef EXPLAINTI_SERVE_REQUEST_H_
#define EXPLAINTI_SERVE_REQUEST_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/explanation.h"
#include "core/task_data.h"
#include "qa/query.h"
#include "util/status.h"
#include "util/timer.h"

namespace explainti::serve {

/// Which InferenceSession entry point a request targets. Requests with
/// the same (method, task) pair are batch-compatible: the micro-batcher
/// coalesces them into one dispatch through the session's batched entry
/// points.
enum class ServeMethod {
  kPredict = 0,              ///< Label ids only (cheapest).
  kPredictProbabilities = 1, ///< Per-label sigma outputs.
  kExplain = 2,              ///< Prediction + multi-view explanation set Z.
  /// Structured table-QA: plans the request's qa::QaQuery into session
  /// calls (surrogate-cascaded when the server arms it) and answers with
  /// a provenance-tagged qa::QaAnswer. Requires ServerOptions::qa.enabled.
  kQaAnswer = 3,
};

/// Short human-readable name for `method` (e.g. "Predict").
const char* ServeMethodName(ServeMethod method);

/// Traffic class of a request. Lower numeric value = more important.
/// Under overload the server sheds in reverse class order: a full
/// admission queue preempts the youngest request of the *lowest* class
/// strictly below the arriving one, and batch dispatch leads with the
/// oldest request of the highest queued class.
enum class Priority {
  kInteractive = 0,  ///< User-facing; protected under overload.
  kBatch = 1,        ///< Throughput-oriented; shed before interactive.
  kBackground = 2,   ///< Best-effort backfill; shed first.
};

/// Short human-readable name for `priority` (e.g. "interactive").
const char* PriorityName(Priority priority);

/// One inference request as admitted by the InferenceServer.
///
/// `deadline_us` is on the monotonic clock (util::MonotonicNowUs);
/// util::kNoDeadline means "no limit". A request whose deadline passes
/// while it is still queued is expired with kDeadlineExceeded before it
/// consumes any compute. `arrival_us` is stamped by the admission queue;
/// callers leave it zero.
///
/// `tenant_id` names the traffic owner for quota accounting and
/// per-tenant metrics (serve::TenantRegistry); id 0 is the pre-registered
/// unlimited default tenant, so single-tenant callers need not touch it.
/// `priority` is the request's traffic class. When the server runs with a
/// TenantRegistry, the tenant's registered class overrides this field at
/// admission (priority is a server-side property of the tenant — a noisy
/// neighbour cannot self-promote); without a registry the field is
/// honoured as sent.
struct ServeRequest {
  ServeMethod method = ServeMethod::kPredict;
  core::TaskKind task = core::TaskKind::kType;
  int sample_id = -1;
  /// kQaAnswer only: the structured query. Submit derives `task` from the
  /// query kind and `sample_id` from its first candidate, so QA requests
  /// flow through the same admission/batching/quota machinery.
  qa::QaQuery qa;
  /// Caller-chosen id echoed in the response, for request tracing across
  /// queue/batch/worker boundaries.
  uint64_t trace_id = 0;
  int64_t deadline_us = util::kNoDeadline;  ///< Monotonic; kNoDeadline = none.
  int64_t arrival_us = 0;  ///< Stamped on admission (monotonic).
  int tenant_id = 0;       ///< Quota/metrics owner; 0 = default tenant.
  Priority priority = Priority::kInteractive;
};

/// The response envelope. Exactly one payload field is populated,
/// selected by the request's method; `status` is OK on success, or one
/// of kDeadlineExceeded / kResourceExhausted / kFailedPrecondition /
/// kInvalidArgument when the request was shed.
struct ServeResponse {
  util::Status status;
  uint64_t trace_id = 0;

  std::vector<int> labels;            ///< kPredict.
  std::vector<float> probabilities;   ///< kPredictProbabilities.
  /// kExplain: the full multi-view set, including the per-request ANN
  /// degradation flag/note — batching never strips the annotation.
  core::Explanation explanation;
  /// kQaAnswer: the composed answer with its provenance-tagged
  /// justification and cascade telemetry.
  qa::QaAnswer qa;

  // Serving telemetry, filled for completed (non-rejected) requests.
  int64_t queue_wait_us = 0;  ///< Admission to batch dispatch.
  int64_t total_us = 0;       ///< Admission to completion.
  int batch_size = 0;         ///< Size of the coalesced batch served with.
  /// Served straight from the response cache (no queue, no compute;
  /// batch_size is 0).
  bool cache_hit = false;
  /// Model generation that computed this response (1 = the session the
  /// server started with; each successful hot-swap increments it). A
  /// cache hit reports the generation that originally computed the entry.
  uint64_t model_generation = 0;
};

/// Completion callback. Invoked exactly once per admitted request, from a
/// worker thread, from Submit itself (cache hits and preempted victims),
/// or from Shutdown for requests that could not be served. Must not block
/// for long and must not re-enter the server.
using ServeCallback = std::function<void(ServeResponse&&)>;

/// A queued request with its completion callback; the unit the admission
/// queue and micro-batcher operate on.
struct PendingRequest {
  ServeRequest request;
  ServeCallback on_done;
  /// Content hash of the sample's serialised input, stamped at admission
  /// when the response cache is enabled (0 = not hashed / cache off).
  uint64_t input_hash = 0;
};

/// Can `a` and `b` ride in the same coalesced batch?
inline bool CompatibleForBatch(const ServeRequest& a, const ServeRequest& b) {
  return a.method == b.method && a.task == b.task;
}

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_REQUEST_H_
