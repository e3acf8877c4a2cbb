#include "serve/batcher.h"

#include <string>

#include "util/logging.h"
#include "util/timer.h"

namespace explainti::serve {

MicroBatcher::MicroBatcher(const BatcherOptions& options) : options_(options) {
  CHECK(options_.max_batch_size >= 1) << "max_batch_size must be >= 1";
  CHECK(options_.max_queue_depth >= 1) << "max_queue_depth must be >= 1";
}

util::Status MicroBatcher::Push(PendingRequest pending,
                                std::vector<PendingRequest>* preempted) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return util::Status::FailedPrecondition(
        "admission closed: server is shutting down");
  }
  if (static_cast<int64_t>(queue_.size()) >= options_.max_queue_depth) {
    // Priority shedding: evict the youngest request of the lowest class
    // strictly below the arrival's — background yields to batch, both
    // yield to interactive; equal-class traffic is first-come-first-
    // admitted, exactly the pre-tenancy behaviour.
    size_t victim = queue_.size();
    Priority victim_priority = pending.request.priority;
    for (size_t i = 0; i < queue_.size(); ++i) {
      const Priority p = queue_[i].request.priority;
      if (p > victim_priority ||
          (victim < queue_.size() && p == victim_priority)) {
        // Strictly worse class than the best victim so far, or equally
        // bad but younger (later in arrival order): prefer it.
        victim = i;
        victim_priority = p;
      }
    }
    if (victim == queue_.size()) {
      return util::Status::ResourceExhausted(
          "admission queue full (max_queue_depth=" +
          std::to_string(options_.max_queue_depth) + ")");
    }
    preempted->push_back(std::move(queue_[victim]));
    queue_.erase(queue_.begin() + static_cast<int64_t>(victim));
  }
  pending.request.arrival_us = util::MonotonicNowUs();
  queue_.push_back(std::move(pending));
  work_cv_.notify_one();
  return util::Status::OK();
}

size_t MicroBatcher::LeaderIndex() const {
  size_t leader = 0;
  for (size_t i = 1; i < queue_.size(); ++i) {
    // Strictly better class wins; the queue is in arrival order, so the
    // first request of the best class is also its oldest.
    if (queue_[i].request.priority < queue_[leader].request.priority) {
      leader = i;
    }
  }
  return leader;
}

bool MicroBatcher::PopBatch(std::vector<PendingRequest>* batch,
                            std::vector<PendingRequest>* expired) {
  batch->clear();
  expired->clear();
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // Shut down and drained.

  // 1. Sweep requests whose deadline passed while queued: they are
  // handed back separately so the worker fails them without running
  // any inference.
  const int64_t now = util::MonotonicNowUs();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (util::DeadlineExpired(it->request.deadline_us, now)) {
      expired->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // The queue was non-empty, so an empty queue here means `expired`
  // holds everything.
  if (queue_.empty()) return true;

  // 2. The oldest request of the best queued priority class leads;
  // compatible requests join it in arrival order, and the batch
  // dispatches now, full or not.
  const size_t leader = LeaderIndex();
  const ServeMethod leader_method = queue_[leader].request.method;
  const core::TaskKind leader_task = queue_[leader].request.task;
  for (auto it = queue_.begin();
       it != queue_.end() &&
       batch->size() < static_cast<size_t>(options_.max_batch_size);) {
    if (it->request.method == leader_method &&
        it->request.task == leader_task) {
      batch->push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // Leftover (incompatible) requests may already form another batch —
  // hand them to a sibling consumer instead of waiting for the next
  // Push.
  if (!queue_.empty()) work_cv_.notify_one();
  return true;
}

void MicroBatcher::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;
  work_cv_.notify_all();
}

std::vector<PendingRequest> MicroBatcher::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingRequest> remaining;
  remaining.reserve(queue_.size());
  while (!queue_.empty()) {
    remaining.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return remaining;
}

int64_t MicroBatcher::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

}  // namespace explainti::serve
