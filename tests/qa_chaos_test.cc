// Chaos harness for the table-QA cascade's fail-closed path: a
// distillation that fails for real (a non-positive epoch count) at engine
// construction, including on a generation brought up by a hot swap. Every
// such engine must serve teacher-only with a typed Status: answers are
// bit-identical to a cascade-off build, never wrong and never partial.
// Runs under the `chaos` ctest label.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "data/wiki_generator.h"
#include "golden_evidence.h"
#include "qa/engine.h"
#include "qa/query.h"
#include "serve/server.h"

namespace explainti::qa {
namespace {

using core::ExplainTiModel;
using core::InferenceSession;
using core::TaskKind;

struct SharedModel {
  SharedModel()
      : corpus(explainti::testing::GoldenCorpus()),
        model(explainti::testing::GoldenConfig(), corpus) {
    model.RefreshStores();
  }
  data::TableCorpus corpus;
  ExplainTiModel model;
};

const SharedModel& Shared() {
  static const SharedModel* shared = new SharedModel();
  return *shared;
}

// A cascade whose distillation fails for real: Distill rejects a
// non-positive epoch count with InvalidArgument before any teacher call.
QaOptions FailingCascadeOptions() {
  QaOptions options;
  options.enable_surrogate = true;
  options.surrogate_epochs = 0;
  return options;
}

QaQuery FindQuery() {
  const InferenceSession& session = Shared().model.session();
  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  const int n = static_cast<int>(
      session.task_data(TaskKind::kType).samples.size());
  for (int id = 0; id < n && id < 6; ++id) query.sample_ids.push_back(id);
  query.label_id = session.Predict(TaskKind::kType, 0)[0];
  query.top_k = 6;
  return query;
}

serve::ServeRequest QaRequest(const QaQuery& query) {
  serve::ServeRequest request;
  request.method = serve::ServeMethod::kQaAnswer;
  request.qa = query;
  return request;
}

// Distillation failure at construction: the engine comes up fail-closed
// — teacher-only with the typed root cause — and every answer is
// bit-identical to a cascade-off build.
TEST(QaChaosTest, DistillationFailureFailsClosedToTeacherOnly) {
  const InferenceSession& session = Shared().model.session();
  QaEngine reference(&session, QaOptions{});
  QaEngine crippled(&session, FailingCascadeOptions());
  EXPECT_FALSE(crippled.surrogate_active());
  EXPECT_EQ(crippled.surrogate_status().code(),
            util::StatusCode::kInvalidArgument);

  const QaQuery find = FindQuery();
  QaQuery point;
  point.kind = QaQueryKind::kColumnType;
  point.sample_ids = {find.sample_ids.back()};
  for (const QaQuery& query : {find, point}) {
    auto expected = reference.Answer(query);
    ASSERT_TRUE(expected.ok());
    auto answer = crippled.Answer(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(SameAnswer(expected.value(), answer.value()));
    EXPECT_EQ(answer.value().surrogate_steps, 0);
    EXPECT_EQ(answer.value().surrogate_status.code(),
              util::StatusCode::kInvalidArgument);
  }
}

// Distillation failure on a rollout: the swap itself must still succeed
// (QA is fail-closed, never fail-open and never swap-blocking), and the
// new generation serves teacher-only QA with the typed status.
TEST(QaChaosTest, DistillationFailureAcrossHotSwapServesTeacherOnly) {
  const SharedModel& shared = Shared();
  const InferenceSession& session = shared.model.session();
  const std::string checkpoint = ::testing::TempDir() + "/qa_chaos_swap.bin";
  ASSERT_TRUE(shared.model.SaveWeights(checkpoint).ok());
  util::StatusOr<std::unique_ptr<ExplainTiModel>> replica =
      core::LoadReplicaForSwap(explainti::testing::GoldenConfig(),
                               shared.corpus, checkpoint);
  ASSERT_TRUE(replica.ok()) << replica.status().ToString();

  serve::ServerOptions options;
  options.num_workers = 2;
  options.qa.enabled = true;
  options.qa.options = FailingCascadeOptions();
  serve::InferenceServer server(session, options);
  ASSERT_NE(server.qa_engine(), nullptr);
  EXPECT_FALSE(server.qa_engine()->surrogate_active());

  const QaQuery query = FindQuery();
  // Teacher-only reference from a cascade-off engine on the same model.
  QaEngine reference(&session, QaOptions{});
  auto expected = reference.Answer(query);
  ASSERT_TRUE(expected.ok());

  ASSERT_TRUE(server.SwapSession(replica.value()->session()).ok());
  EXPECT_EQ(server.current_generation(), 2u);
  ASSERT_NE(server.qa_engine(), nullptr);
  EXPECT_FALSE(server.qa_engine()->surrogate_active());
  EXPECT_EQ(server.qa_engine()->surrogate_status().code(),
            util::StatusCode::kInvalidArgument);

  const serve::ServeResponse response = server.ServeSync(QaRequest(query));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.model_generation, 2u);
  // Same weights via the checkpoint round-trip: the teacher-only answer
  // on generation 2 is bit-identical to the cascade-off reference.
  EXPECT_TRUE(SameAnswer(expected.value(), response.qa));
  EXPECT_EQ(response.qa.surrogate_steps, 0);
  EXPECT_EQ(response.qa.surrogate_status.code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.metrics().GetCounter("qa.surrogate_answered")->Value(),
            0);
}

}  // namespace
}  // namespace explainti::qa
