// Chaos harness for the serving subsystem: the faults serving can really
// meet — quota storms and a torn checkpoint mid-rollout — hit live
// traffic, and every failure must degrade to a typed Status with no
// dropped callback, no torn response, and no wrong data. Runs under the
// `chaos` ctest label (asan-ubsan job in CI).

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "serve/server.h"

namespace explainti::serve {
namespace {

using core::ExplainTiConfig;
using core::ExplainTiModel;
using core::InferenceSession;
using core::TaskKind;

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

TEST(ChaosTest, QuotaExhaustionStormNeverStarvesTheInteractiveTenant) {
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

TEST(ChaosTest, CheckpointLoadFaultMidSwapLeavesOldGenerationServing) {
  const SharedModel& shared = Shared();
  const InferenceSession& session = shared.model.session();
  const std::string checkpoint = ::testing::TempDir() + "/chaos_swap.bin";
  ASSERT_TRUE(shared.model.SaveWeights(checkpoint).ok());

  InferenceServer server(session);
  const ServeResponse before =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(before.status.ok());

  {
    // A torn copy of the checkpoint: its CRC check fails mid-rollout.
    const std::string torn = checkpoint + ".torn";
    std::filesystem::copy_file(
        checkpoint, torn, std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 2);
    const util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
        core::LoadReplicaForSwap(SharedModel::MakeConfig(), shared.corpus,
                                 torn);
    ASSERT_FALSE(replica.ok());
    EXPECT_EQ(replica.status().code(), util::StatusCode::kInvalidArgument);
  }
  // The rollout never reached the server: generation 1 keeps serving,
  // bit-identically.
  EXPECT_EQ(server.current_generation(), 1u);
  const ServeResponse after =
      server.ServeSync(MakeRequest(ServeMethod::kPredict, 1));
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.labels, before.labels);
  EXPECT_EQ(after.model_generation, 1u);

  // From the intact checkpoint the same rollout succeeds end to end.
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

}  // namespace
}  // namespace explainti::serve
