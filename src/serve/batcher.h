#ifndef EXPLAINTI_SERVE_BATCHER_H_
#define EXPLAINTI_SERVE_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.h"
#include "util/status.h"

namespace explainti::serve {

/// Tuning knobs for the admission queue and batch coalescing. A consumer
/// takes whatever compatible work is queued when it looks, so batches
/// form only from requests that queued while every consumer was busy.
struct BatcherOptions {
  /// Largest coalesced batch handed to a worker.
  int max_batch_size = 8;
  /// Bound on queued (admitted, not yet dispatched) requests. Push
  /// rejects with kResourceExhausted beyond this — the server sheds load
  /// instead of buffering unboundedly — unless a lower-priority victim
  /// can be preempted (see Push).
  int max_queue_depth = 256;
};

/// Condition-variable-driven dynamic micro-batcher: a bounded MPMC
/// admission queue whose consumers receive *coalesced batches* of
/// compatible requests (same method + task) instead of single items.
///
/// Dispatch discipline, in order:
///   1. Expired requests (monotonic deadline passed while queued) are
///      swept out on every pop and returned separately so the worker can
///      fail them with kDeadlineExceeded before they consume compute.
///   2. The *leader* — the oldest queued request of the highest queued
///      priority class — leads the batch; compatible requests anywhere in
///      the queue join it in arrival order, up to max_batch_size. With a
///      single priority class this is exactly oldest-request-leads.
///   3. The batch dispatches at once, full or not: the batcher is
///      work-conserving and never holds queued work to let a batch
///      fill. Incompatible requests keep their arrival order for the
///      next pop.
///
/// Overload discipline: at max_queue_depth, an arriving request preempts
/// the *youngest queued request of the lowest priority class strictly
/// below its own* (background before batch; interactive never preempted
/// by batch traffic). The victim is handed back to the caller to fail
/// with kResourceExhausted; when no strictly-lower-priority victim
/// exists, the arriving request itself is rejected. Same-class traffic
/// therefore keeps the seed first-come-first-admitted behaviour.
///
/// Thread-safe: any number of producers (Push) and consumers (PopBatch).
class MicroBatcher {
 public:
  explicit MicroBatcher(const BatcherOptions& options);

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Admits one request, stamping request.arrival_us. Fails with
  /// kResourceExhausted when the queue is at max_queue_depth and no
  /// lower-priority victim exists, and with kFailedPrecondition after
  /// Shutdown; in both cases the callback is NOT invoked and ownership
  /// stays with the caller. When the queue is full but holds work of a
  /// strictly lower priority class, the youngest such request is moved
  /// into `*preempted` and the new request is admitted; the caller owns
  /// failing the victim.
  util::Status Push(PendingRequest pending,
                    std::vector<PendingRequest>* preempted);

  /// Blocks until work is queued, then fills `batch` (one coalesced,
  /// compatible batch; empty only when every queued request had expired)
  /// and `expired` (requests whose deadline passed in the queue) without
  /// waiting further. Returns false only when the batcher is shut down
  /// AND drained — after which neither vector has content and the
  /// consumer should exit. Both vectors are cleared first and keep their
  /// capacity across calls.
  bool PopBatch(std::vector<PendingRequest>* batch,
                std::vector<PendingRequest>* expired);

  /// Stops admissions and wakes all consumers. Already-admitted requests
  /// remain poppable so consumers can drain gracefully. Idempotent.
  void Shutdown();

  /// Pops every remaining queued request (no coalescing, no waiting).
  /// For terminal cleanup when no consumer threads exist.
  std::vector<PendingRequest> Flush();

  /// Current queued depth (admitted, not yet dispatched).
  int64_t size() const;

 private:
  /// Index of the leader: oldest request of the best (numerically
  /// lowest) priority class. Requires mu_ held and a non-empty queue.
  size_t LeaderIndex() const;

  const BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> queue_;
  bool shutdown_ = false;
};

}  // namespace explainti::serve

#endif  // EXPLAINTI_SERVE_BATCHER_H_
