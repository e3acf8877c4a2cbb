#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "core/store_persistence.h"
#include "data/wiki_generator.h"
#include "segment_files.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "tensor/workspace.h"
#include "util/alloc_counter.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace explainti::serve {
namespace {

using core::ExplainTiConfig;
using core::ExplainTiModel;
using core::Explanation;
using core::InferenceSession;
using core::TaskKind;

// Restores the global pool to the environment-configured size when a
// test that sweeps thread counts finishes, so test order doesn't matter.
class GlobalPoolGuard {
 public:
  GlobalPoolGuard() = default;
  ~GlobalPoolGuard() {
    util::SetGlobalThreadCount(util::ConfiguredThreadCount());
  }
};

// One shared frozen model for the whole suite: the serving layer never
// mutates weights, so every test can read through the same session.
struct SharedModel {
  SharedModel() : corpus(MakeCorpus()), model(MakeConfig(), corpus) {
    model.RefreshStores();
  }
  static data::TableCorpus MakeCorpus() {
    data::WikiTableOptions options;
    options.num_tables = 28;
    return data::GenerateWikiTableCorpus(options);
  }
  static ExplainTiConfig MakeConfig() {
    ExplainTiConfig config;
    config.sample_size = 4;
    config.top_k = 3;
    return config;
  }
  data::TableCorpus corpus;
  ExplainTiModel model;
};

const SharedModel& Shared() {
  static const SharedModel* shared = new SharedModel();
  return *shared;
}

std::vector<int> SampleIds(int count) {
  const core::TaskData& task = Shared().model.task_data(TaskKind::kType);
  std::vector<int> ids;
  const int n = static_cast<int>(task.samples.size());
  for (int id = 0; id < n && static_cast<int>(ids.size()) < count; ++id) {
    ids.push_back(id);
  }
  return ids;
}

void ExpectBitEqual(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << what;
  }
}

// Collects async responses into preallocated slots and lets the test
// block until every admitted request completed.
class Collector {
 public:
  explicit Collector(size_t n) : responses_(n), remaining_(n) {}

  ServeCallback Slot(size_t i) {
    return [this, i](ServeResponse&& response) {
      responses_[i] = std::move(response);
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) cv_.notify_all();
    };
  }

  // For requests rejected at Submit: nothing to wait for.
  void MarkRejected() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

  const ServeResponse& response(size_t i) const { return responses_[i]; }

 private:
  std::vector<ServeResponse> responses_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t remaining_;
};

ServeRequest MakeRequest(ServeMethod method, int sample_id,
                         uint64_t trace_id = 0) {
  ServeRequest request;
  request.method = method;
  request.task = TaskKind::kType;
  request.sample_id = sample_id;
  request.trace_id = trace_id;
  return request;
}

// Distinct single-token input per `v`, for driving ResponseCache
// directly (the cache verifies stored input content on every hit).
text::EncodedSequence SeqOf(int v) {
  text::EncodedSequence seq;
  seq.ids = {v};
  seq.segments = {0};
  return seq;
}

// ---------------------------------------------------------------------------
// Golden bit-equality: batched serving must produce exactly what direct
// InferenceSession calls produce, at several batch sizes.
// ---------------------------------------------------------------------------

class GoldenBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenBatchTest, ServerMatchesDirectSessionBitForBit) {
  const int batch_size = GetParam();
  const InferenceSession& session = Shared().model.session();
  const std::vector<int> ids = SampleIds(8);

  // Direct (unbatched) reference results.
  std::vector<std::vector<int>> want_labels;
  std::vector<std::vector<float>> want_probs;
  std::vector<Explanation> want_explanations;
  for (int id : ids) {
    want_labels.push_back(session.Predict(TaskKind::kType, id));
    want_probs.push_back(session.PredictProbabilities(TaskKind::kType, id));
    want_explanations.push_back(session.Explain(TaskKind::kType, id));
  }

  ServerOptions options;
  options.num_workers = 2;
  options.batcher.max_batch_size = batch_size;
  InferenceServer server(session, options);

  // One burst of all three methods; batches form from whatever is queued.
  Collector collector(3 * ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(server
                    .Submit(MakeRequest(ServeMethod::kPredict, ids[i], i),
                            collector.Slot(i))
                    .ok());
    ASSERT_TRUE(
        server
            .Submit(MakeRequest(ServeMethod::kPredictProbabilities, ids[i]),
                    collector.Slot(ids.size() + i))
            .ok());
    ASSERT_TRUE(server
                    .Submit(MakeRequest(ServeMethod::kExplain, ids[i]),
                            collector.Slot(2 * ids.size() + i))
                    .ok());
  }
  collector.Wait();

  for (size_t i = 0; i < ids.size(); ++i) {
    const ServeResponse& predict = collector.response(i);
    ASSERT_TRUE(predict.status.ok()) << predict.status.ToString();
    EXPECT_EQ(predict.trace_id, i);
    EXPECT_EQ(predict.labels, want_labels[i]);
    EXPECT_GE(predict.batch_size, 1);
    EXPECT_LE(predict.batch_size, batch_size);

    const ServeResponse& probs = collector.response(ids.size() + i);
    ASSERT_TRUE(probs.status.ok());
    ExpectBitEqual(probs.probabilities, want_probs[i], "probabilities");

    const ServeResponse& explain = collector.response(2 * ids.size() + i);
    ASSERT_TRUE(explain.status.ok());
    EXPECT_EQ(explain.explanation.predicted_labels,
              want_explanations[i].predicted_labels);
    ExpectBitEqual(explain.explanation.probabilities,
                   want_explanations[i].probabilities,
                   "explanation probabilities");
    ASSERT_EQ(explain.explanation.global.size(),
              want_explanations[i].global.size());
    EXPECT_EQ(explain.explanation.ann_degraded,
              want_explanations[i].ann_degraded);
    EXPECT_EQ(explain.explanation.degradation_note,
              want_explanations[i].degradation_note);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, GoldenBatchTest,
                         ::testing::Values(1, 4, 8));

// The batched InferenceSession entry points themselves are bit-identical
// to per-sample calls at any pool size.
TEST(BatchedSessionTest, BatchedEntryPointsMatchPerSampleAtAnyThreadCount) {
  GlobalPoolGuard guard;
  const InferenceSession& session = Shared().model.session();
  const std::vector<int> ids = SampleIds(6);

  util::SetGlobalThreadCount(1);
  const std::vector<std::vector<int>> serial_labels =
      session.PredictBatch(TaskKind::kType, ids);
  const std::vector<std::vector<float>> serial_probs =
      session.PredictProbabilitiesBatch(TaskKind::kType, ids);

  util::SetGlobalThreadCount(4);
  const std::vector<std::vector<int>> parallel_labels =
      session.PredictBatch(TaskKind::kType, ids);
  const std::vector<std::vector<float>> parallel_probs =
      session.PredictProbabilitiesBatch(TaskKind::kType, ids);
  const std::vector<Explanation> explanations =
      session.ExplainBatch(TaskKind::kType, ids);

  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(parallel_labels[i], serial_labels[i]);
    EXPECT_EQ(parallel_labels[i], session.Predict(TaskKind::kType, ids[i]));
    ExpectBitEqual(parallel_probs[i], serial_probs[i], "probs across pools");
    EXPECT_EQ(explanations[i].predicted_labels, serial_labels[i]);
  }
}

// ---------------------------------------------------------------------------
// Deadline and admission control.
// ---------------------------------------------------------------------------

TEST(ServeAdmissionTest, ExpiredDeadlineIsShedBeforeCompute) {
  const InferenceSession& session = Shared().model.session();
  ServerOptions options;
  options.num_workers = 1;
  InferenceServer server(session, options);

  ServeRequest request = MakeRequest(ServeMethod::kPredict, 0, 77);
  request.deadline_us = util::MonotonicNowUs() - 1;  // Already expired.
  const ServeResponse response = server.ServeSync(request);
  EXPECT_EQ(response.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.trace_id, 77u);
  EXPECT_TRUE(response.labels.empty());
  EXPECT_GE(server.metrics().GetCounter("serve.deadline_expired")->Value(), 1);

  // A sane deadline still serves.
  request.deadline_us = util::DeadlineAfterUs(30'000'000);
  EXPECT_TRUE(server.ServeSync(request).status.ok());
}

TEST(ServeAdmissionTest, QueueOverflowRejectsInsteadOfBuffering) {
  const InferenceSession& session = Shared().model.session();
  ServerOptions options;
  options.num_workers = 0;  // Nothing drains: the queue must stay bounded.
  options.batcher.max_queue_depth = 3;
  std::atomic<int> shutdown_failures{0};
  int accepted = 0;
  {
    InferenceServer server(session, options);
    for (int i = 0; i < 8; ++i) {
      const util::Status admitted =
          server.Submit(MakeRequest(ServeMethod::kPredict, 0),
                        [&](ServeResponse&& response) {
                          if (!response.status.ok()) ++shutdown_failures;
                        });
      if (admitted.ok()) {
        ++accepted;
      } else {
        EXPECT_EQ(admitted.code(), util::StatusCode::kResourceExhausted);
      }
    }
    EXPECT_EQ(accepted, 3);
    EXPECT_EQ(server.batcher().size(), 3);
    EXPECT_EQ(server.batcher().high_water(), 3);
    EXPECT_EQ(server.metrics().GetCounter("serve.rejected_queue_full")->Value(),
              5);
  }
  // With no workers, shutdown fails (but never drops) the accepted ones.
  EXPECT_EQ(shutdown_failures.load(), 3);
}

TEST(ServeAdmissionTest, InvalidRequestsRejectedAtSubmit) {
  const InferenceSession& session = Shared().model.session();
  InferenceServer server(session);
  const ServeResponse negative =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, -1));
  EXPECT_EQ(negative.status.code(), util::StatusCode::kInvalidArgument);
  const ServeResponse huge =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1 << 28));
  EXPECT_EQ(huge.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.metrics().GetCounter("serve.rejected_invalid")->Value(), 2);
}

TEST(ServeAdmissionTest, DrainOnShutdownLosesNoAcceptedRequest) {
  const InferenceSession& session = Shared().model.session();
  const std::vector<int> ids = SampleIds(8);
  std::vector<std::vector<int>> want;
  for (int id : ids) want.push_back(session.Predict(TaskKind::kType, id));

  ServerOptions options;
  options.num_workers = 2;
  options.batcher.max_batch_size = 4;
  InferenceServer server(session, options);

  constexpr int kRequests = 32;
  Collector collector(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        server
            .Submit(MakeRequest(ServeMethod::kPredict,
                                ids[static_cast<size_t>(i) % ids.size()],
                                static_cast<uint64_t>(i)),
                    collector.Slot(static_cast<size_t>(i)))
            .ok());
  }
  server.Shutdown();  // Must serve all 32 before returning.
  collector.Wait();   // Completes immediately if drain held.

  for (int i = 0; i < kRequests; ++i) {
    const ServeResponse& response = collector.response(static_cast<size_t>(i));
    ASSERT_TRUE(response.status.ok()) << "request " << i << ": "
                                      << response.status.ToString();
    EXPECT_EQ(response.trace_id, static_cast<uint64_t>(i));
    EXPECT_EQ(response.labels, want[static_cast<size_t>(i) % want.size()]);
  }
  EXPECT_EQ(server.metrics().GetCounter("serve.completed")->Value(),
            kRequests);
  // Admission is closed after drain.
  EXPECT_EQ(server
                .Submit(MakeRequest(ServeMethod::kPredict, ids[0]),
                        [](ServeResponse&&) {})
                .code(),
            util::StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Batcher coalescing.
// ---------------------------------------------------------------------------

TEST(MicroBatcherTest, CoalescesCompatibleRequestsAndPreservesOrder) {
  BatcherOptions options;
  options.max_batch_size = 8;
  MicroBatcher batcher(options);

  auto push = [&](ServeMethod method, uint64_t trace_id) {
    PendingRequest pending;
    pending.request = MakeRequest(method, 0, trace_id);
    pending.on_done = [](ServeResponse&&) {};
    ASSERT_TRUE(batcher.Push(std::move(pending)).ok());
  };
  push(ServeMethod::kPredict, 1);
  push(ServeMethod::kExplain, 2);
  push(ServeMethod::kPredict, 3);
  push(ServeMethod::kPredict, 4);

  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  EXPECT_TRUE(expired.empty());
  ASSERT_EQ(batch.size(), 3u);  // The three Predicts, around the Explain.
  EXPECT_EQ(batch[0].request.trace_id, 1u);
  EXPECT_EQ(batch[1].request.trace_id, 3u);
  EXPECT_EQ(batch[2].request.trace_id, 4u);

  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.method, ServeMethod::kExplain);
  EXPECT_EQ(batch[0].request.trace_id, 2u);

  batcher.Shutdown();
  EXPECT_FALSE(batcher.PopBatch(&batch, &expired));
}

TEST(MicroBatcherTest, RespectsMaxBatchSize) {
  BatcherOptions options;
  options.max_batch_size = 4;
  MicroBatcher batcher(options);
  for (uint64_t i = 0; i < 10; ++i) {
    PendingRequest pending;
    pending.request = MakeRequest(ServeMethod::kPredict, 0, i);
    pending.on_done = [](ServeResponse&&) {};
    ASSERT_TRUE(batcher.Push(std::move(pending)).ok());
  }
  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batcher.size(), 0);
}

TEST(MicroBatcherTest, ShedsExpiredAndDispatchesLiveWorkInOnePop) {
  MicroBatcher batcher{BatcherOptions{}};
  auto push = [&](uint64_t trace_id, int64_t deadline_us) {
    PendingRequest pending;
    pending.request = MakeRequest(ServeMethod::kPredict, 0, trace_id);
    pending.request.deadline_us = deadline_us;
    pending.on_done = [](ServeResponse&&) {};
    ASSERT_TRUE(batcher.Push(std::move(pending)).ok());
  };
  push(1, util::MonotonicNowUs() - 1);  // Already expired.
  push(2, util::DeadlineAfterUs(30'000'000));

  // The batcher holds nothing back to let a batch fill: one pop sheds the
  // expired request and dispatches the live one.
  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request.trace_id, 1u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.trace_id, 2u);
  EXPECT_EQ(batcher.size(), 0);
}

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(MetricsTest, CountersAndHistogramsAreSharedAndThreadSafe) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("test.counter");
  EXPECT_EQ(counter, registry.GetCounter("test.counter"));  // Stable.
  Histogram* histogram =
      registry.GetHistogram("test.latency", Histogram::LatencyBucketsUs());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.GetCounter("test.counter")->Increment();
        histogram->Record(t * 100 + i % 100);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(histogram->Count(), kThreads * kPerThread);
  EXPECT_LE(histogram->Percentile(0.50), histogram->Percentile(0.99));
  EXPECT_GT(histogram->Percentile(0.99), 0.0);
}

TEST(MetricsTest, JsonSnapshotContainsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("serve.accepted")->Increment(5);
  registry.GetHistogram("serve.e2e_us", Histogram::LatencyBucketsUs())
      ->Record(150);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"serve.accepted\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"serve.e2e_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST(MetricsTest, HistogramPercentileBracketsRecordedValues) {
  Histogram histogram(Histogram::LinearBuckets(10, 10, 20));  // 10..200.
  for (int v = 1; v <= 100; ++v) histogram.Record(v);
  const double p50 = histogram.Percentile(0.50);
  EXPECT_GE(p50, 40.0);
  EXPECT_LE(p50, 60.0);
  const double p99 = histogram.Percentile(0.99);
  EXPECT_GE(p99, 90.0);
  EXPECT_LE(p99, 110.0);
  EXPECT_EQ(histogram.Sum(), 5050);
}

TEST(MetricsTest, PercentileOfEmptyHistogramIsZero) {
  Histogram histogram(Histogram::LatencyBucketsUs());
  EXPECT_EQ(histogram.Percentile(0.50), 0.0);
  EXPECT_EQ(histogram.Percentile(0.99), 0.0);
  EXPECT_EQ(histogram.Count(), 0);
}

TEST(MetricsTest, SingleBucketPercentileIsBucketMidpoint) {
  // Every recording lands in the (20, 30] bucket: interpolating across
  // one bucket's mass must report its midpoint, not its lower edge, and
  // p50 must equal p99 (there is only one place the mass can be).
  Histogram histogram(Histogram::LinearBuckets(10, 10, 20));  // 10..200.
  for (int i = 0; i < 5; ++i) histogram.Record(25);
  EXPECT_EQ(histogram.Percentile(0.50), 25.0);
  EXPECT_EQ(histogram.Percentile(0.99), 25.0);
}

TEST(MetricsTest, OverflowOnlyPercentileSaturatesAtLastBound) {
  // Mass solely in the open-ended overflow bucket: the percentile
  // reports the last finite bound instead of inventing a larger value.
  Histogram histogram(Histogram::LinearBuckets(10, 10, 20));  // 10..200.
  histogram.Record(100'000);
  EXPECT_EQ(histogram.Percentile(0.50), 200.0);
  EXPECT_EQ(histogram.Percentile(0.99), 200.0);
}

// ---------------------------------------------------------------------------
// Tenant quotas: token buckets shed over-quota traffic at admission.
// ---------------------------------------------------------------------------

TEST(TenantRegistryTest, TokenBucketSpendsBurstThenRefillsAtQuotaRate) {
  TenantRegistry tenants;
  TenantOptions limited;
  limited.name = "metered";
  limited.priority = Priority::kBatch;
  limited.quota_rps = 2.0;
  limited.burst = 2.0;
  const int id = tenants.Register(limited);
  ASSERT_EQ(id, 1);  // 0 is the pre-registered default tenant.

  // Admit's status is the only record of a quota rejection; count them.
  int rejections = 0;
  const auto admit = [&](int64_t now_us) {
    const util::Status status = tenants.Admit(id, now_us);
    if (status.code() == util::StatusCode::kResourceExhausted) ++rejections;
    return status;
  };
  const int64_t t0 = 1'000'000;  // Explicit clock: no sleeping.
  EXPECT_TRUE(admit(t0).ok());   // Burst token 1.
  EXPECT_TRUE(admit(t0).ok());   // Burst token 2.
  const util::Status over = admit(t0);
  EXPECT_EQ(over.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(rejections, 1);

  // 500ms at 2 rps refills exactly one token; the next request in the
  // same instant is over quota again.
  EXPECT_TRUE(admit(t0 + 500'000).ok());
  EXPECT_EQ(admit(t0 + 500'000).code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(rejections, 2);
}

TEST(TenantRegistryTest, DefaultTenantIsUnlimitedAndUnknownIdsRejected) {
  TenantRegistry tenants;
  ASSERT_TRUE(tenants.Contains(0));
  EXPECT_EQ(tenants.options(0).priority, Priority::kInteractive);
  // Every admission OK: zero quota rejections.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tenants.Admit(0, 42).ok()) << i;  // Clock never advances.
  }
  EXPECT_FALSE(tenants.Contains(7));
  EXPECT_EQ(tenants.Admit(7, 42).code(), util::StatusCode::kInvalidArgument);
}

TEST(ServeTenantTest, OverQuotaTenantShedBeforeQueueWithPerTenantCounters) {
  const InferenceSession& session = Shared().model.session();
  TenantRegistry tenants;
  TenantOptions metered;
  metered.name = "metered";
  metered.priority = Priority::kBatch;
  metered.quota_rps = 0.001;  // Effectively no refill within the test.
  metered.burst = 2.0;
  const int metered_id = tenants.Register(metered);

  ServerOptions options;
  options.tenants = &tenants;
  InferenceServer server(session, options);
  int ok = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    ServeRequest request = MakeRequest(ServeMethod::kPredict, 0);
    request.tenant_id = metered_id;
    const ServeResponse response = server.ServeSync(request);
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), util::StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 2);    // The burst.
  EXPECT_EQ(shed, 4);  // Everything past it, rejected at admission.
  EXPECT_EQ(
      server.metrics().GetCounter("serve.tenant.metered.rejected_quota")
          ->Value(),
      4);
  EXPECT_EQ(server.metrics().GetCounter("serve.tenant.metered.accepted")
                ->Value(),
            2);
  // The default tenant is untouched by the noisy neighbour.
  const ServeResponse response =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 0));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(server.metrics().GetCounter("serve.tenant.default.accepted")
                ->Value(),
            1);
  // Unknown tenants are invalid, not over-quota.
  ServeRequest unknown = MakeRequest(ServeMethod::kPredict, 0);
  unknown.tenant_id = 99;
  EXPECT_EQ(server.ServeSync(unknown).status.code(),
            util::StatusCode::kInvalidArgument);
}

// The server resolves each tenant's counters when it is constructed, so
// a tenant registered afterwards has none: it is rejected as unknown at
// admission instead of indexing past the per-tenant table.
TEST(ServeTenantTest, TenantRegisteredAfterConstructionIsUnknown) {
  const InferenceSession& session = Shared().model.session();
  TenantRegistry tenants;
  ServerOptions options;
  options.tenants = &tenants;
  InferenceServer server(session, options);
  TenantOptions late;
  late.name = "late";
  ServeRequest request = MakeRequest(ServeMethod::kPredict, 0);
  request.tenant_id = tenants.Register(late);
  EXPECT_EQ(server.ServeSync(request).status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.metrics().GetCounter("serve.rejected_invalid")->Value(), 1);
}

// ---------------------------------------------------------------------------
// Priority shedding: a full queue preempts the youngest request of the
// lowest class strictly below the arrival; equal classes keep the seed
// first-come-first-admitted behaviour.
// ---------------------------------------------------------------------------

TEST(MicroBatcherTest, FullQueuePreemptsYoungestOfLowestClass) {
  BatcherOptions options;
  options.max_queue_depth = 3;
  MicroBatcher batcher(options);

  auto push = [&batcher](Priority priority, uint64_t trace_id,
                         std::vector<PendingRequest>* preempted) {
    PendingRequest pending;
    pending.request.method = ServeMethod::kPredict;
    pending.request.sample_id = 0;
    pending.request.priority = priority;
    pending.request.trace_id = trace_id;
    pending.on_done = [](ServeResponse&&) {};
    return batcher.Push(std::move(pending), preempted);
  };

  // Push hands back every victim; their total is the preemption count.
  int64_t preemptions = 0;
  std::vector<PendingRequest> preempted;
  ASSERT_TRUE(push(Priority::kBackground, 1, &preempted).ok());
  ASSERT_TRUE(push(Priority::kBackground, 2, &preempted).ok());
  ASSERT_TRUE(push(Priority::kBatch, 3, &preempted).ok());
  ASSERT_TRUE(preempted.empty());

  // Full queue + interactive arrival: the *youngest background* request
  // (trace 2) is shed — not the older background 1, not the batch 3.
  ASSERT_TRUE(push(Priority::kInteractive, 4, &preempted).ok());
  ASSERT_EQ(preempted.size(), 1u);
  EXPECT_EQ(preempted[0].request.trace_id, 2u);
  preemptions += static_cast<int64_t>(preempted.size());
  preempted.clear();

  // Batch arrival: background 1 is the only strictly-lower victim left.
  ASSERT_TRUE(push(Priority::kBatch, 5, &preempted).ok());
  ASSERT_EQ(preempted.size(), 1u);
  EXPECT_EQ(preempted[0].request.trace_id, 1u);
  preemptions += static_cast<int64_t>(preempted.size());
  preempted.clear();

  // Queue now holds {batch 3, interactive 4, batch 5}: a batch arrival
  // has no strictly-lower victim and is itself rejected (equal classes
  // never preempt each other).
  EXPECT_EQ(push(Priority::kBatch, 6, &preempted).code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(preempted.empty());
  // Interactive still preempts batch.
  ASSERT_TRUE(push(Priority::kInteractive, 7, &preempted).ok());
  ASSERT_EQ(preempted.size(), 1u);
  EXPECT_EQ(preempted[0].request.trace_id, 5u);  // Youngest batch.
  preemptions += static_cast<int64_t>(preempted.size());
  EXPECT_EQ(preemptions, 3);
}

TEST(MicroBatcherTest, HighestQueuedClassLeadsDispatch) {
  BatcherOptions options;
  options.max_batch_size = 8;
  MicroBatcher batcher(options);

  auto push = [&batcher](ServeMethod method, Priority priority,
                         uint64_t trace_id) {
    PendingRequest pending;
    pending.request.method = method;
    pending.request.sample_id = 0;
    pending.request.priority = priority;
    pending.request.trace_id = trace_id;
    pending.on_done = [](ServeResponse&&) {};
    ASSERT_TRUE(batcher.Push(std::move(pending)).ok());
  };
  // Two background Predicts queued first, then an interactive Explain:
  // the Explain leads the first batch even though it arrived last.
  push(ServeMethod::kPredict, Priority::kBackground, 1);
  push(ServeMethod::kPredict, Priority::kBackground, 2);
  push(ServeMethod::kExplain, Priority::kInteractive, 3);

  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.trace_id, 3u);
  ASSERT_TRUE(batcher.PopBatch(&batch, &expired));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.trace_id, 1u);
  EXPECT_EQ(batch[1].request.trace_id, 2u);
}

// ---------------------------------------------------------------------------
// Response cache: repeated tables short-circuit the queue with
// bit-identical payloads; capacity is enforced shard-locally.
// ---------------------------------------------------------------------------

TEST(ResponseCacheTest, LruEvictsWithinShardAndCountsEverything) {
  CacheOptions options;
  options.enabled = true;
  options.capacity = 2;
  options.num_shards = 1;  // Deterministic LRU order for the test.
  ResponseCache cache(options);

  ServeResponse response;
  response.status = util::Status::OK();
  response.labels = {7};
  const auto key = [](uint64_t hash) {
    return ResponseCache::Key{ServeMethod::kPredict, TaskKind::kType, hash};
  };
  cache.Insert(key(1), SeqOf(1), response);
  cache.Insert(key(2), SeqOf(2), response);
  ServeResponse out;
  EXPECT_TRUE(cache.Lookup(key(1), SeqOf(1), &out));  // Promotes 1 over 2.
  EXPECT_TRUE(out.cache_hit);
  EXPECT_EQ(out.labels, response.labels);
  cache.Insert(key(3), SeqOf(3), response);  // Evicts 2, the LRU entry.
  EXPECT_FALSE(cache.Lookup(key(2), SeqOf(2), &out));
  EXPECT_TRUE(cache.Lookup(key(1), SeqOf(1), &out));
  EXPECT_TRUE(cache.Lookup(key(3), SeqOf(3), &out));
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.Lookup(key(1), SeqOf(1), &out));
  EXPECT_EQ(cache.hits(), 3);  // Counters survive Clear().
}

TEST(ResponseCacheTest, CollidingKeyWithDifferentContentIsAMiss) {
  CacheOptions options;
  options.enabled = true;
  options.capacity = 4;
  options.num_shards = 1;
  ResponseCache cache(options);

  ServeResponse response;
  response.status = util::Status::OK();
  response.labels = {7};
  const ResponseCache::Key key{ServeMethod::kPredict, TaskKind::kType, 42};
  cache.Insert(key, SeqOf(1), response);

  // Same 64-bit key (a forced FNV collision), different input content:
  // the entry must not be served — a collision degrades to a verified
  // miss and a recomputation, never another input's (or another
  // tenant's) payload.
  ServeResponse out;
  EXPECT_FALSE(cache.Lookup(key, SeqOf(2), &out));
  EXPECT_TRUE(out.labels.empty());
  EXPECT_EQ(cache.misses(), 1);

  // The content the entry was computed from still hits.
  EXPECT_TRUE(cache.Lookup(key, SeqOf(1), &out));
  EXPECT_EQ(out.labels, response.labels);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(ResponseCacheTest, CapacityIsExactRegardlessOfShardCount) {
  // More shards than capacity: shards clamp so the bound stays exact.
  CacheOptions options;
  options.enabled = true;
  options.capacity = 4;
  options.num_shards = 8;
  ResponseCache cache(options);
  EXPECT_EQ(cache.capacity(), 4);

  ServeResponse response;
  response.status = util::Status::OK();
  const auto insert = [&response](ResponseCache& c, int i) {
    c.Insert(ResponseCache::Key{ServeMethod::kPredict, TaskKind::kType,
                                static_cast<uint64_t>(i)},
             SeqOf(i), response);
  };
  for (int i = 1; i <= 64; ++i) insert(cache, i);
  EXPECT_EQ(cache.size(), 4);
  EXPECT_EQ(cache.evictions(), 60);

  // Non-divisible capacity: the remainder is distributed, so the shard
  // bounds sum to exactly the configured capacity (not rounded down).
  CacheOptions odd;
  odd.enabled = true;
  odd.capacity = 5;
  odd.num_shards = 2;
  ResponseCache cache5(odd);
  for (int i = 1; i <= 64; ++i) insert(cache5, i);
  EXPECT_EQ(cache5.size(), 5);
}

TEST(ServeCacheTest, RepeatedExplainHitsInlineAndBitIdentical) {
  const InferenceSession& session = Shared().model.session();
  const Explanation want = session.Explain(TaskKind::kType, 1);

  ServerOptions options;
  options.cache.enabled = true;
  InferenceServer server(session, options);

  const ServeResponse cold =
      server.ServeSync(MakeRequest(ServeMethod::kExplain, 1));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_EQ(cold.model_generation, 1u);

  const ServeResponse hot =
      server.ServeSync(MakeRequest(ServeMethod::kExplain, 1));
  ASSERT_TRUE(hot.status.ok());
  EXPECT_TRUE(hot.cache_hit);
  EXPECT_EQ(hot.batch_size, 0);  // Never queued, never batched.
  EXPECT_EQ(hot.model_generation, 1u);

  // The hit reproduces the direct (uncached, unbatched) call bit for bit
  // — prediction, probabilities, all three explanation views, and the
  // ANN-degradation annotation.
  for (const ServeResponse* got : {&cold, &hot}) {
    EXPECT_EQ(got->explanation.predicted_labels, want.predicted_labels);
    ExpectBitEqual(got->explanation.probabilities, want.probabilities,
                   "cached probabilities");
    EXPECT_EQ(got->explanation.local.size(), want.local.size());
    EXPECT_EQ(got->explanation.global.size(), want.global.size());
    EXPECT_EQ(got->explanation.structural.size(), want.structural.size());
    EXPECT_EQ(got->explanation.ann_degraded, want.ann_degraded);
    EXPECT_EQ(got->explanation.degradation_note, want.degradation_note);
  }
  EXPECT_EQ(server.cache()->hits(), 1);
  EXPECT_EQ(server.cache()->misses(), 1);
  EXPECT_EQ(server.metrics().GetCounter("serve.cache_hits")->Value(), 1);
  // Different method on the same input is a different key, not a hit.
  const ServeResponse other =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(other.status.ok());
  EXPECT_FALSE(other.cache_hit);
}

// ---------------------------------------------------------------------------
// Zero-drop hot swap: generations redirect atomically under concurrent
// load; every response is bit-exact for the generation that served it.
// ---------------------------------------------------------------------------

TEST(ServeHotSwapTest, ZeroDropBitExactAcrossThreeSwapsWithOneAborted) {
  util::fault::FaultRegistry::Instance().DisarmAll();
  const SharedModel& shared = Shared();
  const InferenceSession& session_a = shared.model.session();

  // Generation B: same corpus, different init seed — distinguishable
  // outputs, so a torn or misrouted response cannot go unnoticed.
  core::ExplainTiConfig config_b = SharedModel::MakeConfig();
  config_b.seed = 777;
  ExplainTiModel model_b(config_b, shared.corpus);
  model_b.RefreshStores();
  const std::string checkpoint_b = "/tmp/explainti_swap_gen_b.bin";
  ASSERT_TRUE(model_b.SaveWeights(checkpoint_b).ok());

  const std::vector<int> ids = SampleIds(6);
  std::vector<std::vector<float>> ref_a, ref_b;
  for (int id : ids) {
    ref_a.push_back(
        session_a.PredictProbabilities(TaskKind::kType, id));
    ref_b.push_back(
        model_b.session().PredictProbabilities(TaskKind::kType, id));
  }
  bool distinguishable = false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ref_a[i] != ref_b[i]) distinguishable = true;
  }
  ASSERT_TRUE(distinguishable);

  ServerOptions options;
  options.num_workers = 3;
  options.batcher.max_queue_depth = 4096;
  InferenceServer server(session_a, options);
  ASSERT_EQ(server.current_generation(), 1u);

  // Concurrent closed-loop clients: every response must be OK and
  // bit-exact for whichever generation computed it (odd = A, even = B).
  constexpr int kClients = 3;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> submitted{0};
  std::atomic<int64_t> served{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t slot = static_cast<size_t>((c + i++) % ids.size());
        submitted.fetch_add(1, std::memory_order_relaxed);
        const ServeResponse response = server.ServeSync(
            MakeRequest(ServeMethod::kPredictProbabilities, ids[slot]));
        if (!response.status.ok()) {
          failures[static_cast<size_t>(c)] =
              "dropped: " + response.status.ToString();
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        if (response.model_generation == 0) {
          failures[static_cast<size_t>(c)] = "missing generation stamp";
          return;
        }
        const std::vector<std::vector<float>>& want =
            (response.model_generation % 2 == 1) ? ref_a : ref_b;
        if (response.probabilities != want[slot]) {
          failures[static_cast<size_t>(c)] =
              "torn response on generation " +
              std::to_string(response.model_generation);
          return;
        }
      }
    });
  }

  const auto let_traffic_flow = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  let_traffic_flow();

  // Swap 1 (gen 2): a replica loaded fresh from B's checkpoint.
  util::StatusOr<std::unique_ptr<ExplainTiModel>> replica_b =
      core::LoadReplicaForSwap(config_b, shared.corpus, checkpoint_b);
  ASSERT_TRUE(replica_b.ok()) << replica_b.status().ToString();
  ASSERT_TRUE(server.SwapSession(replica_b.value()->session()).ok());
  EXPECT_EQ(server.current_generation(), 2u);
  let_traffic_flow();

  // Aborted swap: the checkpoint load fails mid-rollout; nothing to roll
  // back, generation 2 keeps serving untouched.
  util::fault::FaultSpec spec;
  spec.code = util::StatusCode::kIoError;
  spec.message = "checkpoint store unreachable";
  util::fault::FaultRegistry::Instance().Arm("swap.load_weights", spec);
  const util::StatusOr<std::unique_ptr<ExplainTiModel>> aborted =
      core::LoadReplicaForSwap(SharedModel::MakeConfig(), shared.corpus,
                               checkpoint_b);
  util::fault::FaultRegistry::Instance().DisarmAll();
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), util::StatusCode::kIoError);
  EXPECT_EQ(server.current_generation(), 2u);
  let_traffic_flow();

  // Swap 2 (gen 3): back to A. Swap 3 (gen 4): to B again.
  ASSERT_TRUE(server.SwapSession(session_a).ok());
  EXPECT_EQ(server.current_generation(), 3u);
  let_traffic_flow();
  ASSERT_TRUE(server.SwapSession(model_b.session()).ok());
  EXPECT_EQ(server.current_generation(), 4u);
  let_traffic_flow();

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], "") << "client " << c;
  }
  // Zero drop: every submitted request came back served and OK.
  EXPECT_EQ(served.load(), submitted.load());
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(server.metrics().GetCounter("serve.swaps")->Value(), 3);
}

TEST(ServeHotSwapTest, SwapFaultAbortsWithoutTouchingServingState) {
  util::fault::FaultRegistry::Instance().DisarmAll();
  const InferenceSession& session = Shared().model.session();
  ServerOptions options;
  options.cache.enabled = true;
  InferenceServer server(session, options);
  const ServeResponse cold =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 0));
  ASSERT_TRUE(cold.status.ok());

  util::fault::FaultSpec spec;
  spec.code = util::StatusCode::kInternal;
  spec.message = "rollout controller crashed";
  util::fault::FaultRegistry::Instance().Arm("serve.swap", spec);
  const util::Status swap = server.SwapSession(session);
  util::fault::FaultRegistry::Instance().DisarmAll();
  EXPECT_EQ(swap.code(), util::StatusCode::kInternal);
  EXPECT_EQ(server.current_generation(), 1u);
  EXPECT_EQ(server.metrics().GetCounter("serve.swap_aborted")->Value(), 1);

  // The cache survived the aborted swap (no invalidation happened) and
  // the old generation still serves.
  const ServeResponse hot =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 0));
  ASSERT_TRUE(hot.status.ok());
  EXPECT_TRUE(hot.cache_hit);

  // A successful swap *does* invalidate: the next request recomputes.
  ASSERT_TRUE(server.SwapSession(session).ok());
  const ServeResponse after =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 0));
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.model_generation, 2u);
}

// A request is validated against the generation current at admission
// but executes on whatever generation its batch pins: if a hot-swap in
// between shrank the sample set, dispatch must fail that request with a
// typed status — alone, without crashing — while the rest of the batch
// serves normally.
TEST(ServeHotSwapTest, StaleRequestAfterSwapFailsTypedNotCrash) {
  const InferenceSession& session = Shared().model.session();
  MetricsRegistry metrics;

  ServeResponse valid_out, stale_out;
  std::vector<PendingRequest> batch(2);
  batch[0].request = MakeRequest(ServeMethod::kPredict, 0, 1);
  batch[0].on_done = [&](ServeResponse&& r) { valid_out = std::move(r); };
  // Valid when admitted (notionally, on a bigger pre-swap generation),
  // out of range on the session this batch executes against.
  batch[1].request = MakeRequest(ServeMethod::kPredict, 1 << 28, 2);
  batch[1].on_done = [&](ServeResponse&& r) { stale_out = std::move(r); };

  ServeMetrics handles(&metrics);
  InferenceServer::ExecuteBatch(session, batch, &handles);

  EXPECT_EQ(stale_out.status.code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(stale_out.trace_id, 2u);
  EXPECT_TRUE(stale_out.labels.empty());
  ASSERT_TRUE(valid_out.status.ok()) << valid_out.status.ToString();
  EXPECT_EQ(valid_out.trace_id, 1u);
  EXPECT_EQ(valid_out.labels, session.Predict(TaskKind::kType, 0));
  EXPECT_EQ(valid_out.batch_size, 1);  // The stale entry left the batch.
  EXPECT_EQ(metrics.GetCounter("serve.rejected_stale")->Value(), 1);
}

// ---------------------------------------------------------------------------
// Degradation-note propagation: a store segment serving flat during a
// *batched* Explain must annotate every affected response, exactly as
// direct Explain does.
// ---------------------------------------------------------------------------

TEST(ServeDegradationTest, BatchedExplainCarriesAnnDegradationNote) {
  const SharedModel& shared = Shared();
  const std::vector<int> ids = SampleIds(4);

  // A replica of the shared model whose type store reopens with one
  // flat-only segment.
  const std::string weights = ::testing::TempDir() + "/serve_flat_weights.bin";
  const std::string store_dir = ::testing::TempDir() + "/serve_flat_stores";
  ASSERT_TRUE(shared.model.SaveWeights(weights).ok());
  ASSERT_TRUE(shared.model.SaveStores(store_dir).ok());
  ASSERT_TRUE(explainti::testing::MakeSegmentFlatOnly(
      store_dir + "/type/" + core::SegmentFileName(0)));
  ExplainTiConfig config = SharedModel::MakeConfig();
  config.store_dir = store_dir;
  util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
      core::LoadReplicaForSwap(config, shared.corpus, weights);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  const InferenceSession& session = replica.value()->session();

  ServerOptions options;
  options.num_workers = 1;
  options.batcher.max_batch_size = 4;
  InferenceServer server(session, options);

  Collector degraded(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(server
                    .Submit(MakeRequest(ServeMethod::kExplain, ids[i], i),
                            degraded.Slot(i))
                    .ok());
  }
  degraded.Wait();

  for (size_t i = 0; i < ids.size(); ++i) {
    const ServeResponse& response = degraded.response(i);
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.explanation.ann_degraded) << "request " << i;
    EXPECT_FALSE(response.explanation.degradation_note.empty())
        << "batched Explain dropped the degradation note on request " << i;
    EXPECT_EQ(response.explanation.degradation_note,
              session.Explain(TaskKind::kType, ids[i]).degradation_note);
  }

  // Healthy stores: batched responses agree with direct Explain's flag.
  const InferenceSession& healthy_session = shared.model.session();
  InferenceServer healthy_server(healthy_session, options);
  const Explanation direct = healthy_session.Explain(TaskKind::kType, ids[0]);
  const ServeResponse healthy =
      healthy_server.ServeSync(MakeRequest(ServeMethod::kExplain, ids[0]));
  ASSERT_TRUE(healthy.status.ok());
  EXPECT_FALSE(healthy.explanation.ann_degraded);
  EXPECT_EQ(healthy.explanation.ann_degraded, direct.ann_degraded);
  EXPECT_EQ(healthy.explanation.degradation_note, direct.degradation_note);
}

// ---------------------------------------------------------------------------
// Steady-state worker loop allocation discipline: the batch-execution
// body must perform zero scratch heap allocations (every per-call scratch
// comes from the per-thread Workspace pool) and its
// remaining heap traffic (response envelopes, id vectors) must be exactly
// repeatable.
// ---------------------------------------------------------------------------

TEST(ServeAllocTest, SteadyStateExecuteBatchIsZeroTensorAlloc) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);  // Chunks run inline on this thread.
  const InferenceSession& session = Shared().model.session();
  const std::vector<int> ids = SampleIds(4);

  std::vector<ServeResponse> slots(ids.size());
  std::vector<PendingRequest> batch(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    batch[i].request = MakeRequest(ServeMethod::kPredict, ids[i], i);
    batch[i].request.arrival_us = util::MonotonicNowUs();
    ServeResponse* slot = &slots[i];
    batch[i].on_done = [slot](ServeResponse&& response) {
      *slot = std::move(response);
    };
  }

  auto run = [&] { InferenceServer::ExecuteBatch(session, batch, nullptr); };
  run();  // Warm-up: populates the per-thread workspace arena.
  run();  // Second pass so every bucket reaches its high-water mark.

  const tensor::WorkspaceStats before = tensor::ThisThreadWorkspaceStats();
  const util::AllocCounts heap_before = util::ThisThreadAllocCounts();
  run();
  const util::AllocCounts heap_mid = util::ThisThreadAllocCounts();
  run();
  const tensor::WorkspaceStats after = tensor::ThisThreadWorkspaceStats();
  const util::AllocCounts heap_after = util::ThisThreadAllocCounts();

  EXPECT_GT(after.buffer_acquires, before.buffer_acquires);
  EXPECT_EQ(after.buffer_misses - before.buffer_misses, 0)
      << "scratch buffer fell back to the heap in the steady-state batch loop";
  EXPECT_EQ(heap_mid.allocations - heap_before.allocations,
            heap_after.allocations - heap_mid.allocations);
  EXPECT_EQ(heap_mid.bytes - heap_before.bytes,
            heap_after.bytes - heap_mid.bytes);

  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(slots[i].labels, session.Predict(TaskKind::kType, ids[i]));
  }
}

// The serving instruments are resolved once, not looked up by name per
// event, so updating them allocates nothing once warm. A lookup built a
// key string for every name past 15 characters (every per-tenant name,
// "serve.cache_hits", "serve.queue_wait_us", ...) and a bucket vector for
// every histogram. With by-name lookups a warmed cache-hit Submit from a
// tenant made 5 heap allocations, and a warmed 4-request ExecuteBatch
// made 5 more with metrics than without.
TEST(ServeAllocTest, WarmMetricsUpdatesAllocateNothing) {
  GlobalPoolGuard guard;
  util::SetGlobalThreadCount(1);
  const InferenceSession& session = Shared().model.session();

  // A cache hit completes inline on the submitting thread, so this
  // thread's counts hold the whole admission path.
  TenantRegistry tenants;
  TenantOptions tenant;
  tenant.name = "alloc-probe";
  const int tenant_id = tenants.Register(tenant);
  ServerOptions options;
  options.num_workers = 1;
  options.cache.enabled = true;
  options.tenants = &tenants;
  InferenceServer server(session, options);
  ServeRequest request = MakeRequest(ServeMethod::kPredict, 0);
  request.tenant_id = tenant_id;
  ASSERT_TRUE(server.ServeSync(request).status.ok());  // Fills the cache.
  ServeResponse hit;
  const auto submit = [&] {
    ASSERT_TRUE(server
                    .Submit(request,
                            [&hit](ServeResponse&& r) { hit = std::move(r); })
                    .ok());
  };
  submit();  // Warm-up: resolves every instrument the hit path touches.
  submit();
  constexpr int kSubmits = 16;
  const util::AllocCounts submit_before = util::ThisThreadAllocCounts();
  for (int i = 0; i < kSubmits; ++i) submit();
  const util::AllocCounts submit_after = util::ThisThreadAllocCounts();
  EXPECT_TRUE(hit.cache_hit);
  const uint64_t per_submit =
      (submit_after.allocations - submit_before.allocations) / kSubmits;
  RecordProperty("allocations_per_cache_hit_submit",
                 static_cast<int>(per_submit));
  // What remains is the response copied out of the cache entry.
  EXPECT_LE(per_submit, 1u)
      << "a cache-hit Submit allocates more than its response copy";

  // ExecuteBatch with metrics allocates exactly what it does without.
  const std::vector<int> ids = SampleIds(4);
  std::vector<ServeResponse> slots(ids.size());
  std::vector<PendingRequest> batch(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    batch[i].request = MakeRequest(ServeMethod::kPredict, ids[i], i);
    batch[i].request.arrival_us = util::MonotonicNowUs();
    ServeResponse* slot = &slots[i];
    batch[i].on_done = [slot](ServeResponse&& response) {
      *slot = std::move(response);
    };
  }
  MetricsRegistry registry;
  ServeMetrics metrics(&registry);
  const auto allocations_per_batch = [&](ServeMetrics* m) {
    InferenceServer::ExecuteBatch(session, batch, m);  // Warm-up.
    const util::AllocCounts before = util::ThisThreadAllocCounts();
    InferenceServer::ExecuteBatch(session, batch, m);
    return util::ThisThreadAllocCounts().allocations - before.allocations;
  };
  const uint64_t with_metrics = allocations_per_batch(&metrics);
  const uint64_t without_metrics = allocations_per_batch(nullptr);
  EXPECT_EQ(with_metrics, without_metrics)
      << "recording a batch's metrics allocated on the heap";
  EXPECT_EQ(metrics.completed.get()->Value(),
            2 * static_cast<int64_t>(ids.size()));
}

// ---------------------------------------------------------------------------
// Many-client concurrency (exercised under TSan via the tier1 label: the
// tsan CI job runs this binary with a 4-thread pool).
// ---------------------------------------------------------------------------

TEST(ServeTsanTest, ManyClientsOneServerStayDeterministic) {
  const InferenceSession& session = Shared().model.session();
  const std::vector<int> ids = SampleIds(6);
  std::vector<std::vector<int>> want_labels;
  std::vector<std::vector<float>> want_probs;
  for (int id : ids) {
    want_labels.push_back(session.Predict(TaskKind::kType, id));
    want_probs.push_back(session.PredictProbabilities(TaskKind::kType, id));
  }

  ServerOptions options;
  options.num_workers = 2;
  options.batcher.max_batch_size = 4;
  InferenceServer server(session, options);

  constexpr int kClients = 4;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        for (size_t i = 0; i < ids.size(); ++i) {
          const size_t j = (i + static_cast<size_t>(c)) % ids.size();
          const ServeResponse predict =
              server.ServeSync(MakeRequest(ServeMethod::kPredict, ids[j]));
          if (!predict.status.ok() || predict.labels != want_labels[j]) {
            failures[static_cast<size_t>(c)] = "Predict mismatch";
            return;
          }
          const ServeResponse probs = server.ServeSync(
              MakeRequest(ServeMethod::kPredictProbabilities, ids[j]));
          if (!probs.status.ok() ||
              probs.probabilities.size() != want_probs[j].size() ||
              std::memcmp(probs.probabilities.data(), want_probs[j].data(),
                          want_probs[j].size() * sizeof(float)) != 0) {
            failures[static_cast<size_t>(c)] = "probability mismatch";
            return;
          }
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], "") << "client " << c;
  }
  EXPECT_GE(server.metrics()
                .GetHistogram("serve.batch_size",
                              Histogram::LinearBuckets(1, 1, 32))
                ->Count(),
            1);
}

}  // namespace
}  // namespace explainti::serve
