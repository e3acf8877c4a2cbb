#include "serve/server.h"

#include <condition_variable>
#include <string>
#include <utility>

#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/timer.h"

namespace explainti::serve {

InferenceServer::InferenceServer(const core::InferenceSession& session,
                                 const ServerOptions& options,
                                 MetricsRegistry* metrics)
    : options_(options),
      owned_metrics_(metrics == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      cache_(options.cache.enabled
                 ? std::make_unique<ResponseCache>(options.cache)
                 : nullptr),
      batcher_(options.batcher) {
  CHECK(options_.num_workers >= 0) << "num_workers must be >= 0";
  current_ = std::make_shared<Generation>();
  current_->session = &session;
  if (options_.qa.enabled) {
    // The engine is fail-closed internally: a surrogate distillation
    // failure leaves it serving teacher-only with a typed status, so QA
    // serving always comes up when asked for.
    current_->qa_engine =
        std::make_unique<qa::QaEngine>(&session, options_.qa.options);
  }
  current_->id = 1;
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

Counter* InferenceServer::TenantCounter(int tenant_id, const char* what) {
  if (options_.tenants == nullptr) return nullptr;
  return metrics_->GetCounter("serve.tenant." +
                              options_.tenants->options(tenant_id).name + "." +
                              what);
}

util::Status InferenceServer::Submit(ServeRequest request,
                                     ServeCallback on_done) {
  CHECK(on_done) << "Submit requires a completion callback";
  // Chaos site: an armed "serve.admit" fault sheds the request at the
  // front door with its injected (typed) status — modelling e.g. an
  // auth/metadata dependency outage — before any queue slot is taken.
  if (util::Status fault = FAULT_POINT("serve.admit"); !fault.ok()) {
    metrics_->GetCounter("serve.rejected_admit_fault")->Increment();
    return fault;
  }

  // Tenant admission: unknown tenants are invalid; the tenant's
  // registered class overrides the request's self-declared priority
  // (noisy neighbours cannot self-promote); over-quota tenants are shed
  // here, before the request touches the queue or any compute.
  if (options_.tenants != nullptr) {
    if (!options_.tenants->Contains(request.tenant_id)) {
      metrics_->GetCounter("serve.rejected_invalid")->Increment();
      return util::Status::InvalidArgument(
          "unknown tenant_id " + std::to_string(request.tenant_id));
    }
    request.priority = options_.tenants->options(request.tenant_id).priority;
    util::Status quota = options_.tenants->Admit(request.tenant_id,
                                                 util::MonotonicNowUs());
    if (!quota.ok()) {
      metrics_->GetCounter("serve.rejected_quota")->Increment();
      TenantCounter(request.tenant_id, "rejected_quota")->Increment();
      return quota;
    }
  }

  // QA requests address samples through their query; derive the batching
  // coordinates (task, primary sample) here so the request rides the same
  // coalescing, deadline, and priority machinery as every other method.
  if (request.method == ServeMethod::kQaAnswer) {
    request.task = qa::QaTaskOf(request.qa.kind);
    request.sample_id =
        request.qa.sample_ids.empty() ? -1 : request.qa.sample_ids.front();
  }

  PendingRequest pending;
  pending.request = request;
  pending.on_done = std::move(on_done);

  // Admission-time validation: malformed requests are rejected here so
  // they never occupy queue slots or reach a worker. Validation, content
  // hashing, and the cache lookup all read the serving session, so the
  // generation stays pinned throughout: SwapSession's drain then covers
  // in-flight admissions too, and the caller can never free the old
  // session while Submit is still reading it.
  util::Status valid = util::Status::OK();
  bool cache_hit = false;
  ServeResponse hit;
  {
    std::shared_ptr<Generation> generation = PinGeneration();
    const core::InferenceSession& session = *generation->session;
    if (request.method == ServeMethod::kQaAnswer) {
      if (!options_.qa.enabled) {
        valid = util::Status::InvalidArgument(
            "QA serving is not enabled on this server");
      } else {
        valid = qa::ValidateQuery(session, request.qa);
      }
      if (valid.ok() && cache_ != nullptr) {
        // QA cache key: the query's parameters plus the serialised
        // content of EVERY candidate — two queries differing in any
        // candidate, target label, or top_k can never share a key, and
        // the method field already separates QA entries from an Explain
        // entry over the same table.
        const core::TaskData& task = session.task_data(request.task);
        uint64_t hash = util::HashInts(
            {static_cast<int>(request.qa.kind), request.qa.label_id,
             request.qa.top_k});
        for (int id : request.qa.sample_ids) {
          const text::EncodedSequence& seq =
              task.samples[static_cast<size_t>(id)].seq;
          hash = util::HashInts(seq.ids, hash);
          hash = util::HashInts(seq.segments, hash);
        }
        pending.input_hash = hash;
        cache_hit = cache_->Lookup(
            {request.method, request.task, hash},
            task.samples[static_cast<size_t>(request.sample_id)].seq,
            &request.qa, &hit);
      }
    } else if (!session.HasTask(request.task)) {
      valid = util::Status::InvalidArgument("task not available on this model");
    } else {
      const core::TaskData& task = session.task_data(request.task);
      if (request.sample_id < 0 ||
          request.sample_id >= static_cast<int>(task.samples.size())) {
        valid = util::Status::InvalidArgument(
            "sample_id " + std::to_string(request.sample_id) +
            " out of range [0, " + std::to_string(task.samples.size()) + ")");
      } else if (cache_ != nullptr) {
        // Response cache: key on the *content* of the serialised input
        // (token ids + segments), so repeated tables short-circuit the
        // queue entirely. A hit completes inline, bit-identical to the
        // insert-time computation.
        const text::EncodedSequence& seq =
            task.samples[request.sample_id].seq;
        uint64_t hash = util::HashInts(seq.ids);
        hash = util::HashInts(seq.segments, hash);
        pending.input_hash = hash;
        cache_hit =
            cache_->Lookup({request.method, request.task, hash}, seq, &hit);
      }
    }
    UnpinGeneration(generation);
  }
  if (!valid.ok()) {
    metrics_->GetCounter("serve.rejected_invalid")->Increment();
    return valid;
  }
  // An admission counts once, whether the cache answers it inline or it
  // queues. QA traffic is separately visible per tenant: the method costs
  // a whole query plan per request, so quota debugging needs to see who
  // sends it.
  auto count_accepted = [&] {
    metrics_->GetCounter("serve.accepted")->Increment();
    if (Counter* c = TenantCounter(request.tenant_id, "accepted")) {
      c->Increment();
    }
    if (request.method == ServeMethod::kQaAnswer) {
      metrics_->GetCounter("serve.qa_accepted")->Increment();
      if (Counter* c = TenantCounter(request.tenant_id, "qa_accepted")) {
        c->Increment();
      }
    }
  };
  if (cache_hit) {
    count_accepted();
    metrics_->GetCounter("serve.cache_hits")->Increment();
    hit.status = util::Status::OK();
    hit.trace_id = request.trace_id;
    pending.on_done(std::move(hit));
    return util::Status::OK();
  }

  std::vector<PendingRequest> preempted;
  util::Status admitted = batcher_.Push(std::move(pending), &preempted);
  if (admitted.ok()) {
    count_accepted();
  } else if (admitted.code() == util::StatusCode::kResourceExhausted) {
    metrics_->GetCounter("serve.rejected_queue_full")->Increment();
    if (Counter* c = TenantCounter(request.tenant_id, "rejected_queue_full")) {
      c->Increment();
    }
  } else {
    metrics_->GetCounter("serve.rejected_shutdown")->Increment();
  }
  FailPreempted(preempted);
  return admitted;
}

void InferenceServer::FailPreempted(std::vector<PendingRequest>& victims) {
  if (victims.empty()) return;
  metrics_->GetCounter("serve.preempted")
      ->Increment(static_cast<int64_t>(victims.size()));
  for (PendingRequest& victim : victims) {
    if (Counter* c = TenantCounter(victim.request.tenant_id, "preempted")) {
      c->Increment();
    }
    ServeResponse response;
    response.status = util::Status::ResourceExhausted(
        "shed from a full queue by a higher-priority arrival");
    response.trace_id = victim.request.trace_id;
    victim.on_done(std::move(response));
  }
  victims.clear();
}

ServeResponse InferenceServer::ServeSync(ServeRequest request) {
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServeResponse response;
  } state;
  const uint64_t trace_id = request.trace_id;
  const util::Status admitted =
      Submit(std::move(request), [&state](ServeResponse&& response) {
        std::lock_guard<std::mutex> lock(state.mu);
        state.response = std::move(response);
        state.done = true;
        state.cv.notify_one();
      });
  if (!admitted.ok()) {
    ServeResponse rejected;
    rejected.status = admitted;
    rejected.trace_id = trace_id;
    return rejected;
  }
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.done; });
  return std::move(state.response);
}

uint64_t InferenceServer::current_generation() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return current_->id;
}

const qa::QaEngine* InferenceServer::qa_engine() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return current_->qa_engine.get();
}

util::Status InferenceServer::SwapSession(const core::InferenceSession& next) {
  // One rollout at a time; a swap racing Shutdown is refused rather than
  // left waiting on workers that are exiting.
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  if (stopping_.load(std::memory_order_acquire)) {
    return util::Status::FailedPrecondition(
        "server is shutting down; hot-swap refused");
  }
  // Chaos site: an armed "serve.swap" fault aborts the rollout before any
  // state changes — the old generation keeps serving untouched.
  if (util::Status fault = FAULT_POINT("serve.swap"); !fault.ok()) {
    metrics_->GetCounter("serve.swap_aborted")->Increment();
    return fault;
  }

  std::shared_ptr<Generation> next_gen = std::make_shared<Generation>();
  next_gen->session = &next;
  if (options_.qa.enabled) {
    // Build the replacement QA engine (including surrogate distillation,
    // the expensive part) BEFORE the atomic redirect: the old generation
    // keeps answering QA traffic for the whole build, and a distillation
    // failure fail-closes inside the engine rather than failing the swap.
    next_gen->qa_engine =
        std::make_unique<qa::QaEngine>(&next, options_.qa.options);
  }

  std::unique_lock<std::mutex> lock(gen_mu_);
  std::shared_ptr<Generation> old = current_;
  next_gen->id = old->id + 1;
  // The atomic redirect: every batch pinned after this line runs on the
  // new generation. Batches already pinned keep their old pointer and
  // finish there — no batch ever observes two sessions.
  current_ = next_gen;
  // Drain: the old model may only be freed once nothing executes on it.
  gen_cv_.wait(lock, [&old] {
    return old->in_flight.load(std::memory_order_acquire) == 0;
  });
  lock.unlock();

  // Invalidate after the drain so a still-running old-generation batch
  // cannot re-insert a stale entry behind the wipe. (New-generation
  // entries inserted during the drain window are wiped too — a lost
  // caching opportunity, never a correctness issue.)
  if (cache_ != nullptr) cache_->Clear();
  metrics_->GetCounter("serve.swaps")->Increment();
  return util::Status::OK();
}

std::shared_ptr<InferenceServer::Generation> InferenceServer::PinGeneration() {
  std::lock_guard<std::mutex> lock(gen_mu_);
  current_->in_flight.fetch_add(1, std::memory_order_acq_rel);
  return current_;
}

void InferenceServer::UnpinGeneration(
    const std::shared_ptr<Generation>& generation) {
  if (generation->in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last batch off this generation: wake a swap waiting to drain it.
    // Lock/unlock pairs the notify with the waiter's predicate check.
    std::lock_guard<std::mutex> lock(gen_mu_);
    gen_cv_.notify_all();
  }
}

void InferenceServer::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (stopped_) return;
  stopped_ = true;
  batcher_.Shutdown();
  // Workers drain the queue completely before PopBatch returns false, so
  // every accepted request is served before the join returns.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Only reachable with num_workers == 0: nobody drained, so fail the
  // leftovers rather than dropping their callbacks.
  std::vector<PendingRequest> leftovers = batcher_.Flush();
  for (PendingRequest& pending : leftovers) {
    ServeResponse response;
    response.status = util::Status::FailedPrecondition(
        "server shut down before the request was served");
    response.trace_id = pending.request.trace_id;
    metrics_->GetCounter("serve.rejected_shutdown")->Increment();
    pending.on_done(std::move(response));
  }
}

void InferenceServer::WorkerLoop() {
  // Batch vectors live for the worker's lifetime and keep their capacity
  // across iterations; each per-sample call inside ExecuteBatch takes its
  // scratch from the executing thread's Workspace pool, so the
  // steady-state loop performs no scratch heap allocations.
  std::vector<PendingRequest> batch;
  std::vector<PendingRequest> expired;
  while (batcher_.PopBatch(&batch, &expired)) {
    FailExpired(expired, metrics_);
    if (batch.empty()) continue;
    // Pin one generation for the whole batch: the swap path redirects
    // the pointer first and then waits for this pin to release.
    std::shared_ptr<Generation> generation = PinGeneration();
    ExecuteBatch(*generation->session, batch, metrics_, cache_.get(),
                 generation->id, generation->qa_engine.get());
    UnpinGeneration(generation);
  }
}

void InferenceServer::FailExpired(std::vector<PendingRequest>& expired,
                                  MetricsRegistry* metrics) {
  if (expired.empty()) return;
  if (metrics != nullptr) {
    metrics->GetCounter("serve.deadline_expired")
        ->Increment(static_cast<int64_t>(expired.size()));
  }
  for (PendingRequest& pending : expired) {
    ServeResponse response;
    response.status = util::Status::DeadlineExceeded(
        "deadline passed while queued; request shed before execution");
    response.trace_id = pending.request.trace_id;
    pending.on_done(std::move(response));
  }
}

void InferenceServer::ExecuteBatch(const core::InferenceSession& session,
                                   std::vector<PendingRequest>& batch,
                                   MetricsRegistry* metrics,
                                   ResponseCache* cache, uint64_t generation,
                                   const qa::QaEngine* qa_engine) {
  if (batch.empty()) return;
  const ServeMethod method = batch.front().request.method;
  const core::TaskKind task = batch.front().request.task;

  // Requests were validated against the generation current at admission,
  // but the batch executes on whatever generation is pinned now: a
  // hot-swap in between may have removed the task or shrunk the sample
  // set. Re-validate against the executing session and complete
  // mismatches with a typed status — a stale request must fail alone,
  // never trip a CHECK that takes the whole process down.
  const int num_samples =
      session.HasTask(task)
          ? static_cast<int>(session.task_data(task).samples.size())
          : 0;
  size_t keep = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& pending = batch[i];
    bool in_range = pending.request.sample_id >= 0 &&
                    pending.request.sample_id < num_samples;
    if (method == ServeMethod::kQaAnswer && in_range) {
      // A QA request ranges over EVERY candidate in its query, not just
      // the primary sample the batcher coalesced it by — a swap that
      // shrank the sample set must invalidate the whole query.
      for (int id : pending.request.qa.sample_ids) {
        if (id < 0 || id >= num_samples) {
          in_range = false;
          break;
        }
      }
    }
    if (in_range) {
      if (keep != i) batch[keep] = std::move(pending);
      ++keep;
      continue;
    }
    if (metrics != nullptr) {
      metrics->GetCounter("serve.rejected_stale")->Increment();
    }
    ServeResponse stale;
    stale.status = util::Status::FailedPrecondition(
        "request invalidated by a model hot-swap while queued; retry "
        "against the current generation");
    stale.trace_id = pending.request.trace_id;
    pending.on_done(std::move(stale));
  }
  batch.resize(keep);
  if (batch.empty()) return;

  const int64_t dispatch_us = util::MonotonicNowUs();

  std::vector<int> ids;
  ids.reserve(batch.size());
  for (const PendingRequest& pending : batch) {
    CHECK(CompatibleForBatch(batch.front().request, pending.request))
        << "incompatible request coalesced into one batch";
    ids.push_back(pending.request.sample_id);
  }

  std::vector<ServeResponse> responses(batch.size());
  switch (method) {
    case ServeMethod::kPredict: {
      std::vector<std::vector<int>> labels = session.PredictBatch(task, ids);
      for (size_t i = 0; i < batch.size(); ++i) {
        responses[i].labels = std::move(labels[i]);
      }
      break;
    }
    case ServeMethod::kPredictProbabilities: {
      std::vector<std::vector<float>> probs =
          session.PredictProbabilitiesBatch(task, ids);
      for (size_t i = 0; i < batch.size(); ++i) {
        responses[i].probabilities = std::move(probs[i]);
      }
      break;
    }
    case ServeMethod::kExplain: {
      std::vector<core::Explanation> explanations =
          session.ExplainBatch(task, ids);
      for (size_t i = 0; i < batch.size(); ++i) {
        // Whole-struct move: the ann_degraded flag and degradation_note
        // (set when a store segment serves flat) ride along with the
        // views, per request.
        responses[i].explanation = std::move(explanations[i]);
      }
      break;
    }
    case ServeMethod::kQaAnswer: {
      // Each query is planned and answered individually: a query that
      // fails validation against the executing generation completes alone
      // with its typed status — the rest of the batch (and the
      // callback-exactly-once guarantee) is untouched.
      Histogram* surrogate_us = nullptr;
      Histogram* teacher_us = nullptr;
      if (metrics != nullptr) {
        surrogate_us = metrics->GetHistogram("qa.surrogate_us",
                                             Histogram::LatencyBucketsUs());
        teacher_us = metrics->GetHistogram("qa.teacher_us",
                                           Histogram::LatencyBucketsUs());
      }
      for (size_t i = 0; i < batch.size(); ++i) {
        if (qa_engine == nullptr) {
          responses[i].status = util::Status::FailedPrecondition(
              "QA serving is not enabled on this server");
          continue;
        }
        const int64_t start_us = util::MonotonicNowUs();
        util::StatusOr<qa::QaAnswer> answer =
            qa_engine->Answer(batch[i].request.qa);
        const int64_t elapsed_us = util::MonotonicNowUs() - start_us;
        if (!answer.ok()) {
          responses[i].status = answer.status();
          if (metrics != nullptr) {
            metrics->GetCounter("qa.failed")->Increment();
          }
          continue;
        }
        responses[i].qa = std::move(answer).value();
        if (metrics != nullptr) {
          const qa::QaAnswer& composed = responses[i].qa;
          const int64_t total_steps =
              static_cast<int64_t>(composed.justification.steps.size());
          metrics->GetCounter("qa.answered")->Increment();
          metrics->GetCounter("qa.surrogate_answered")
              ->Increment(composed.surrogate_steps);
          metrics->GetCounter("qa.escalated")
              ->Increment(composed.escalated_steps);
          // Per-tier latency: an answer composed entirely at the
          // surrogate tier is the cheap path the cascade exists for;
          // anything that touched the teacher is teacher-tier cost.
          if (total_steps > 0 && composed.surrogate_steps == total_steps) {
            surrogate_us->Record(elapsed_us);
          } else {
            teacher_us->Record(elapsed_us);
          }
        }
      }
      break;
    }
  }

  const int64_t done_us = util::MonotonicNowUs();
  Histogram* queue_wait = nullptr;
  Histogram* e2e = nullptr;
  if (metrics != nullptr) {
    queue_wait = metrics->GetHistogram("serve.queue_wait_us",
                                       Histogram::LatencyBucketsUs());
    e2e = metrics->GetHistogram("serve.e2e_us",
                                Histogram::LatencyBucketsUs());
    metrics->GetCounter("serve.batches")->Increment();
    metrics->GetCounter("serve.completed")
        ->Increment(static_cast<int64_t>(batch.size()));
    metrics
        ->GetHistogram("serve.batch_size",
                       Histogram::LinearBuckets(1, 1, 32))
        ->Record(static_cast<int64_t>(batch.size()));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& pending = batch[i];
    ServeResponse& response = responses[i];
    // A per-entry failure (QA dispatch) keeps its typed status; everything
    // else completes OK (the default-constructed status).
    const bool entry_ok = response.status.ok();
    response.trace_id = pending.request.trace_id;
    response.queue_wait_us = dispatch_us - pending.request.arrival_us;
    response.total_us = done_us - pending.request.arrival_us;
    response.batch_size = static_cast<int>(batch.size());
    response.model_generation = generation;
    if (queue_wait != nullptr) queue_wait->Record(response.queue_wait_us);
    if (e2e != nullptr) e2e->Record(response.total_us);
    if (entry_ok && cache != nullptr && pending.input_hash != 0) {
      // Stores the executing generation's input alongside the payload:
      // a later lookup whose content differs (hash collision, or a swap
      // between hashing and execution) verify-misses instead of being
      // served this entry. Failed entries are never cached. QA entries
      // store their query too, for hit-time verification.
      cache->Insert(
          {pending.request.method, pending.request.task, pending.input_hash},
          session.task_data(task).samples[pending.request.sample_id].seq,
          pending.request.method == ServeMethod::kQaAnswer
              ? &pending.request.qa
              : nullptr,
          response);
    }
    pending.on_done(std::move(response));
  }
}

}  // namespace explainti::serve
