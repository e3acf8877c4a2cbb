// Chaos harness for the serving subsystem: the faults serving can really
// meet — admission outages, quota storms, a checkpoint read failing
// mid-rollout, and a store segment reopened without its HNSW graph — hit
// live traffic, and every failure must degrade to a typed Status with no
// dropped callback, no torn response, and no wrong data. Runs under the
// `chaos` ctest label (asan-ubsan job in CI).

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "core/store_persistence.h"
#include "data/wiki_generator.h"
#include "segment_files.h"
#include "serve/server.h"
#include "util/fault_injection.h"

namespace explainti::serve {
namespace {

using core::ExplainTiConfig;
using core::ExplainTiModel;
using core::InferenceSession;
using core::TaskKind;
using util::fault::FaultKind;
using util::fault::FaultRegistry;
using util::fault::FaultSpec;

// Arms `site` for the lifetime of the scope, then disarms everything.
class ArmedFault {
 public:
  ArmedFault(const std::string& site, util::StatusCode code,
             int every_n = 1) {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.code = code;
    spec.message = "chaos: " + site;
    spec.every_n = every_n;
    FaultRegistry::Instance().Arm(site, spec);
  }
  ~ArmedFault() { FaultRegistry::Instance().DisarmAll(); }
};

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

ServeRequest MakeRequest(ServeMethod method, int sample_id,
                         int tenant_id = 0) {
  ServeRequest request;
  request.method = method;
  request.task = TaskKind::kType;
  request.sample_id = sample_id;
  request.tenant_id = tenant_id;
  return request;
}

// Every fault leaves the registry disarmed for the next test.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

TEST_F(ChaosTest, AdmissionFaultShedsWithTypedStatusAndServesTheRest) {
  const InferenceSession& session = Shared().model.session();
  InferenceServer server(session);
  // Every 3rd admission hits the injected dependency outage; the rest of
  // the traffic is completely unaffected.
  ArmedFault fault("serve.admit", util::StatusCode::kInternal,
                   /*every_n=*/3);
  int ok = 0, shed = 0;
  for (int i = 0; i < 12; ++i) {
    const ServeResponse response =
        server.ServeSync(MakeRequest(ServeMethod::kPredict, i % 4));
    if (response.status.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.status.code(), util::StatusCode::kInternal);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(ok, 8);
  EXPECT_EQ(
      server.metrics().GetCounter("serve.rejected_admit_fault")->Value(), 4);
}

TEST_F(ChaosTest, QuotaExhaustionStormNeverStarvesTheInteractiveTenant) {
  const InferenceSession& session = Shared().model.session();
  TenantRegistry tenants;
  TenantOptions storm;
  storm.name = "storm";
  storm.priority = Priority::kBackground;
  storm.quota_rps = 0.001;  // Two requests, then dry for the whole test.
  storm.burst = 2.0;
  const int storm_id = tenants.Register(storm);

  ServerOptions options;
  options.tenants = &tenants;
  InferenceServer server(session, options);

  std::atomic<int> storm_ok{0}, storm_shed{0}, storm_other{0};
  std::thread flood([&] {
    for (int i = 0; i < 64; ++i) {
      const ServeResponse response = server.ServeSync(
          MakeRequest(ServeMethod::kPredict, i % 4, storm_id));
      if (response.status.ok()) {
        storm_ok.fetch_add(1);
      } else if (response.status.code() ==
                 util::StatusCode::kResourceExhausted) {
        storm_shed.fetch_add(1);
      } else {
        storm_other.fetch_add(1);
      }
    }
  });
  // The interactive default tenant serves normally through the storm.
  for (int i = 0; i < 16; ++i) {
    const ServeResponse response =
        server.ServeSync(MakeRequest(ServeMethod::kPredict, i % 4));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  flood.join();
  EXPECT_EQ(storm_ok.load(), 2);    // Exactly the burst.
  EXPECT_EQ(storm_shed.load(), 62); // Everything else, typed, at admission.
  EXPECT_EQ(storm_other.load(), 0);
  EXPECT_EQ(
      server.metrics().GetCounter("serve.tenant.storm.rejected_quota")->Value(),
      62);
}

TEST_F(ChaosTest, CheckpointLoadFaultMidSwapLeavesOldGenerationServing) {
  const SharedModel& shared = Shared();
  const InferenceSession& session = shared.model.session();
  const std::string checkpoint = ::testing::TempDir() + "/chaos_swap.bin";
  ASSERT_TRUE(shared.model.SaveWeights(checkpoint).ok());

  InferenceServer server(session);
  const ServeResponse before =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(before.status.ok());

  {
    ArmedFault fault("swap.load_weights", util::StatusCode::kIoError);
    const util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
        core::LoadReplicaForSwap(SharedModel::MakeConfig(), shared.corpus,
                                 checkpoint);
    ASSERT_FALSE(replica.ok());
    EXPECT_EQ(replica.status().code(), util::StatusCode::kIoError);
  }
  // The rollout never reached the server: generation 1 keeps serving,
  // bit-identically.
  EXPECT_EQ(server.current_generation(), 1u);
  const ServeResponse after =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_EQ(after.model_generation, 1u);

  // With the fault cleared the same rollout succeeds end to end.
  util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
      core::LoadReplicaForSwap(SharedModel::MakeConfig(), shared.corpus,
                               checkpoint);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  ASSERT_TRUE(server.SwapSession(replica.value()->session()).ok());
  EXPECT_EQ(server.current_generation(), 2u);
  const ServeResponse swapped =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(swapped.status.ok());
  // Same weights via the checkpoint round-trip: identical predictions.
  EXPECT_EQ(swapped.labels, before.labels);
  EXPECT_EQ(swapped.model_generation, 2u);
}

TEST_F(ChaosTest, FlatOnlySegmentDuringSwapAnnotatesNotCorrupts) {
  const SharedModel& shared = Shared();
  // Two generations with identical weights (checkpoint round-trip), both
  // reopening a type store whose one segment is flat-only, so every
  // explanation on either side of the swap is degraded and comparable.
  const std::string checkpoint = ::testing::TempDir() + "/chaos_ann_swap.bin";
  const std::string store_dir = ::testing::TempDir() + "/chaos_ann_stores";
  ASSERT_TRUE(shared.model.SaveWeights(checkpoint).ok());
  ASSERT_TRUE(shared.model.SaveStores(store_dir).ok());
  ASSERT_TRUE(explainti::testing::MakeSegmentFlatOnly(
      store_dir + "/type/" + core::SegmentFileName(0)));
  ExplainTiConfig config = SharedModel::MakeConfig();
  config.store_dir = store_dir;
  util::StatusOr<std::unique_ptr<ExplainTiModel>> first =
      core::LoadReplicaForSwap(config, shared.corpus, checkpoint);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
      core::LoadReplicaForSwap(config, shared.corpus, checkpoint);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();
  const InferenceSession& session = first.value()->session();

  ServerOptions options;
  options.num_workers = 2;
  InferenceServer server(session, options);

  // Live Explain traffic while a segment serves flat *and* the model hot-
  // swaps underneath: every response must stay OK — annotated as
  // degraded, served from the exact flat tier, never corrupted.
  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::vector<std::string> failures(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const ServeResponse response = server.ServeSync(
            MakeRequest(ServeMethod::kExplain, (c + i++) % 4));
        if (!response.status.ok()) {
          failures[static_cast<size_t>(c)] = response.status.ToString();
          return;
        }
        if (!response.explanation.global.empty() &&
            (!response.explanation.ann_degraded ||
             response.explanation.degradation_note.empty())) {
          failures[static_cast<size_t>(c)] = "degradation note missing";
          return;
        }
        served.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(server.SwapSession(replica.value()->session()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < 2; ++c) {
    EXPECT_EQ(failures[static_cast<size_t>(c)], "") << "client " << c;
  }
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(server.current_generation(), 2u);
}

}  // namespace
}  // namespace explainti::serve
