#include "serve/server.h"

#include <condition_variable>
#include <string>
#include <utility>

#include "util/logging.h"
#include "util/timer.h"

namespace explainti::serve {

ServeMetrics::ServeMetrics(MetricsRegistry* registry)
    : accepted(registry, "serve.accepted"),
      qa_accepted(registry, "serve.qa_accepted"),
      cache_hits(registry, "serve.cache_hits"),
      rejected_invalid(registry, "serve.rejected_invalid"),
      rejected_quota(registry, "serve.rejected_quota"),
      rejected_queue_full(registry, "serve.rejected_queue_full"),
      rejected_shutdown(registry, "serve.rejected_shutdown"),
      preempted(registry, "serve.preempted"),
      swaps(registry, "serve.swaps"),
      deadline_expired(registry, "serve.deadline_expired"),
      rejected_stale(registry, "serve.rejected_stale"),
      batches(registry, "serve.batches"),
      completed(registry, "serve.completed"),
      queue_wait_us(registry, "serve.queue_wait_us",
                    Histogram::LatencyBucketsUs()),
      e2e_us(registry, "serve.e2e_us", Histogram::LatencyBucketsUs()),
      batch_size(registry, "serve.batch_size",
                 Histogram::LinearBuckets(1, 1, 32)),
      qa_failed(registry, "qa.failed"),
      qa_answered(registry, "qa.answered"),
      qa_surrogate_answered(registry, "qa.surrogate_answered"),
      qa_escalated(registry, "qa.escalated"),
      qa_surrogate_us(registry, "qa.surrogate_us",
                      Histogram::LatencyBucketsUs()),
      qa_teacher_us(registry, "qa.teacher_us",
                    Histogram::LatencyBucketsUs()) {}

namespace {

// OK when `request` names at least one sample and every sample it reads
// lies in [0, num_samples); otherwise names the first offending id.
util::Status CheckSamples(const ServeRequest& request, int num_samples) {
  const std::span<const int> ids = SampleIdsOf(request);
  if (ids.empty()) {
    return util::Status::InvalidArgument("request names no sample");
  }
  for (int id : ids) {
    if (id < 0 || id >= num_samples) {
      return util::Status::InvalidArgument(
          "sample_id " + std::to_string(id) + " out of range [0, " +
          std::to_string(num_samples) + ")");
    }
  }
  return util::Status::OK();
}

// The server's copy of `options`. The registry pointer is dropped: the
// constructor reads the registry once into the server's tenant table,
// so the registry may be destroyed before the server.
ServerOptions WithoutRegistry(ServerOptions options) {
  options.tenants = nullptr;
  return options;
}

// The query a cache entry is verified against: QA entries only.
const qa::QaQuery* CachedQuery(const ServeRequest& request) {
  return request.method == ServeMethod::kQaAnswer ? &request.qa : nullptr;
}

}  // namespace

InferenceServer::Tenant::Tenant(MetricsRegistry* registry,
                                const TenantOptions& options)
    : priority(options.priority),
      bucket(options),
      accepted(registry, "serve.tenant." + options.name + ".accepted"),
      qa_accepted(registry, "serve.tenant." + options.name + ".qa_accepted"),
      rejected_quota(registry,
                     "serve.tenant." + options.name + ".rejected_quota"),
      rejected_queue_full(
          registry, "serve.tenant." + options.name + ".rejected_queue_full"),
      preempted(registry, "serve.tenant." + options.name + ".preempted") {}

InferenceServer::InferenceServer(const core::InferenceSession& session,
                                 const ServerOptions& options,
                                 MetricsRegistry* metrics)
    : options_(WithoutRegistry(options)),
      owned_metrics_(metrics == nullptr ? std::make_unique<MetricsRegistry>()
                                        : nullptr),
      metrics_(metrics == nullptr ? owned_metrics_.get() : metrics),
      serve_metrics_(metrics_),
      cache_(options.cache.enabled
                 ? std::make_unique<ResponseCache>(options.cache)
                 : nullptr),
      batcher_(options.batcher) {
  CHECK(options_.num_workers >= 0) << "num_workers must be >= 0";
  if (options.tenants != nullptr) {
    for (int id = 0; id < options.tenants->size(); ++id) {
      tenants_.push_back(
          std::make_unique<Tenant>(metrics_, options.tenants->options(id)));
    }
  }
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

util::Status InferenceServer::Submit(ServeRequest request,
                                     ServeCallback on_done) {
  CHECK(on_done) << "Submit requires a completion callback";

  // Tenant admission, from the table resolved at construction: unknown
  // tenants are invalid; the tenant's registered class overrides the
  // request's self-declared priority (noisy neighbours cannot
  // self-promote); over-quota tenants are shed here, before the request
  // touches the queue or any compute.
  Tenant* tenant = nullptr;
  if (!tenants_.empty()) {
    if (request.tenant_id < 0 ||
        request.tenant_id >= static_cast<int>(tenants_.size())) {
      serve_metrics_.rejected_invalid.Increment();
      return util::Status::InvalidArgument(
          "unknown tenant_id " + std::to_string(request.tenant_id));
    }
    tenant = tenants_[static_cast<size_t>(request.tenant_id)].get();
    request.priority = tenant->priority;
    util::Status quota = tenant->bucket.Admit(util::MonotonicNowUs());
    if (!quota.ok()) {
      serve_metrics_.rejected_quota.Increment();
      tenant->rejected_quota.Increment();
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

  // Admission-time validation: malformed requests are rejected here so
  // they never occupy queue slots or reach a worker. Validation, content
  // hashing, and the cache lookup all read the serving session, so the
  // generation stays pinned throughout: SwapSession's drain then covers
  // in-flight admissions too, and the caller can never free the old
  // session while Submit is still reading it.
  util::Status valid = util::Status::OK();
  uint64_t input_hash = 0;
  bool cache_hit = false;
  ServeResponse hit;
  {
    std::shared_ptr<Generation> generation = PinGeneration();
    const core::InferenceSession& session = *generation->session;
    if (request.method == ServeMethod::kQaAnswer && !options_.qa.enabled) {
      valid = util::Status::InvalidArgument(
          "QA serving is not enabled on this server");
    } else if (!session.HasTask(request.task)) {
      valid = util::Status::InvalidArgument(
          std::string("task ") + core::TaskKindName(request.task) +
          " not available on this model");
    } else {
      const core::TaskData& task = session.task_data(request.task);
      valid = CheckSamples(request, static_cast<int>(task.samples.size()));
      if (valid.ok() && request.method == ServeMethod::kQaAnswer) {
        valid = qa::ValidateQuery(session, request.qa);
      }
      if (valid.ok() && cache_ != nullptr) {
        // Response cache: key on the *content* of every sample the
        // request reads (CacheInputHash). A hit completes inline,
        // bit-identical to the insert-time computation.
        input_hash = CacheInputHash(request, task);
        cache_hit = cache_->Lookup(
            {request.method, request.task, input_hash},
            task.samples[static_cast<size_t>(SampleIdsOf(request).front())]
                .seq,
            CachedQuery(request), &hit);
      }
    }
    UnpinGeneration(generation);
  }
  if (!valid.ok()) {
    serve_metrics_.rejected_invalid.Increment();
    return valid;
  }
  // An admission counts once, whether the cache answers it inline or it
  // queues. QA traffic is separately visible per tenant: the method costs
  // a whole query plan per request, so quota debugging needs to see who
  // sends it.
  const ServeMethod method = request.method;
  auto count_accepted = [&] {
    serve_metrics_.accepted.Increment();
    if (tenant != nullptr) tenant->accepted.Increment();
    if (method == ServeMethod::kQaAnswer) {
      serve_metrics_.qa_accepted.Increment();
      if (tenant != nullptr) tenant->qa_accepted.Increment();
    }
  };
  if (cache_hit) {
    count_accepted();
    serve_metrics_.cache_hits.Increment();
    hit.status = util::Status::OK();
    hit.trace_id = request.trace_id;
    on_done(std::move(hit));
    return util::Status::OK();
  }

  PendingRequest pending;
  pending.request = std::move(request);
  pending.on_done = std::move(on_done);
  pending.input_hash = input_hash;
  std::vector<PendingRequest> preempted;
  util::Status admitted = batcher_.Push(std::move(pending), &preempted);
  if (admitted.ok()) {
    count_accepted();
  } else if (admitted.code() == util::StatusCode::kResourceExhausted) {
    serve_metrics_.rejected_queue_full.Increment();
    if (tenant != nullptr) tenant->rejected_queue_full.Increment();
  } else {
    serve_metrics_.rejected_shutdown.Increment();
  }
  FailPreempted(preempted);
  return admitted;
}

void InferenceServer::FailPreempted(std::vector<PendingRequest>& victims) {
  if (victims.empty()) return;
  serve_metrics_.preempted.Increment(static_cast<int64_t>(victims.size()));
  for (PendingRequest& victim : victims) {
    // A victim passed admission, so its tenant id indexes the table.
    if (!tenants_.empty()) {
      tenants_[static_cast<size_t>(victim.request.tenant_id)]
          ->preempted.Increment();
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
  serve_metrics_.swaps.Increment();
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
    serve_metrics_.rejected_shutdown.Increment();
    pending.on_done(std::move(response));
  }
}

void InferenceServer::WorkerLoop() {
  // Batch vectors live for the worker's lifetime and keep their capacity
  // across iterations; each per-sample call inside ExecuteBatch takes its
  // scratch from the executing thread's grow-only scratch buffer, so the
  // steady-state loop performs no scratch heap allocations.
  std::vector<PendingRequest> batch;
  std::vector<PendingRequest> expired;
  while (batcher_.PopBatch(&batch, &expired)) {
    FailExpired(expired, &serve_metrics_);
    if (batch.empty()) continue;
    // Pin one generation for the whole batch: the swap path redirects
    // the pointer first and then waits for this pin to release.
    std::shared_ptr<Generation> generation = PinGeneration();
    ExecuteBatch(*generation->session, batch, &serve_metrics_, cache_.get(),
                 generation->id, generation->qa_engine.get());
    UnpinGeneration(generation);
  }
}

void InferenceServer::FailExpired(std::vector<PendingRequest>& expired,
                                  ServeMetrics* metrics) {
  if (expired.empty()) return;
  if (metrics != nullptr) {
    metrics->deadline_expired.Increment(static_cast<int64_t>(expired.size()));
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
                                   ServeMetrics* metrics,
                                   ResponseCache* cache, uint64_t generation,
                                   const qa::QaEngine* qa_engine) {
  if (batch.empty()) return;
  const ServeMethod method = batch.front().request.method;
  const core::TaskKind task = batch.front().request.task;

  // Requests were validated against the generation current at admission,
  // but the batch executes on whatever generation is pinned now: a
  // hot-swap in between may have removed the task or shrunk the sample
  // set. Re-check every sample each request reads (SampleIdsOf: all of
  // a QA query's candidates) against the executing session and complete
  // mismatches with a typed status — a stale request must fail alone,
  // never trip a CHECK that takes the whole process down.
  const int num_samples =
      session.HasTask(task)
          ? static_cast<int>(session.task_data(task).samples.size())
          : 0;
  size_t keep = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& pending = batch[i];
    if (CheckSamples(pending.request, num_samples).ok()) {
      if (keep != i) batch[keep] = std::move(pending);
      ++keep;
      continue;
    }
    if (metrics != nullptr) metrics->rejected_stale.Increment();
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
        // Whole-struct move: the degradation_note (set when the store is
        // empty) rides along with the views, per request.
        responses[i].explanation = std::move(explanations[i]);
      }
      break;
    }
    case ServeMethod::kQaAnswer: {
      // Each query is planned and answered individually: a query that
      // fails validation against the executing generation completes alone
      // with its typed status — the rest of the batch (and the
      // callback-exactly-once guarantee) is untouched. Both tier
      // histograms are registered as soon as QA traffic runs, so an
      // export tells "no answers at this tier" from "no QA traffic".
      if (metrics != nullptr) {
        metrics->qa_surrogate_us.get();
        metrics->qa_teacher_us.get();
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
          if (metrics != nullptr) metrics->qa_failed.Increment();
          continue;
        }
        responses[i].qa = std::move(answer).value();
        if (metrics != nullptr) {
          const qa::QaAnswer& composed = responses[i].qa;
          const int64_t total_steps =
              static_cast<int64_t>(composed.justification.steps.size());
          metrics->qa_answered.Increment();
          metrics->qa_surrogate_answered.Increment(composed.surrogate_steps);
          metrics->qa_escalated.Increment(composed.escalated_steps);
          // Per-tier latency: an answer composed entirely at the
          // surrogate tier is the cheap path the cascade exists for;
          // anything that touched the teacher is teacher-tier cost.
          if (total_steps > 0 && composed.surrogate_steps == total_steps) {
            metrics->qa_surrogate_us.Record(elapsed_us);
          } else {
            metrics->qa_teacher_us.Record(elapsed_us);
          }
        }
      }
      break;
    }
  }

  const int64_t done_us = util::MonotonicNowUs();
  if (metrics != nullptr) {
    metrics->batches.Increment();
    metrics->completed.Increment(static_cast<int64_t>(batch.size()));
    metrics->batch_size.Record(static_cast<int64_t>(batch.size()));
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
    if (metrics != nullptr) {
      metrics->queue_wait_us.Record(response.queue_wait_us);
      metrics->e2e_us.Record(response.total_us);
    }
    if (entry_ok && cache != nullptr && pending.input_hash != 0) {
      // Stores the executing generation's input alongside the payload:
      // a later lookup whose content differs (hash collision, or a swap
      // between hashing and execution) verify-misses instead of being
      // served this entry. Failed entries are never cached. QA entries
      // store their query too, for hit-time verification.
      cache->Insert(
          {pending.request.method, pending.request.task, pending.input_hash},
          session.task_data(task)
              .samples[static_cast<size_t>(
                  SampleIdsOf(pending.request).front())]
              .seq,
          CachedQuery(pending.request), response);
    }
    pending.on_done(std::move(response));
  }
}

}  // namespace explainti::serve
