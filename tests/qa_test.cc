#include "qa/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain_ti_model.h"
#include "data/wiki_generator.h"
#include "eval/human_sim.h"
#include "golden_evidence.h"
#include "qa/query.h"
#include "qa/surrogate.h"
#include "serve/server.h"
#include "util/hash.h"

namespace explainti::qa {
namespace {

using core::ExplainTiConfig;
using core::ExplainTiModel;
using core::InferenceSession;
using core::TaskKind;

// One shared frozen model for the whole suite (the QA layer never mutates
// it): the golden wiki fixture, stores refreshed but untrained — the
// composition contracts under test (planning, provenance, bit-identity,
// coverage algebra) are invariant to training, and skipping Fit keeps the
// suite tier-1 fast.
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

QaOptions CascadeOptions() {
  QaOptions options;
  options.enable_surrogate = true;
  // Tiny distillation schedule: the tests assert routing and identity
  // semantics, not agreement quality (the bench gates that).
  options.surrogate_epochs = 20;
  options.distill_max_samples = 8;
  return options;
}

std::vector<int> CandidateIds(TaskKind kind, int count) {
  const core::TaskData& task = Shared().model.task_data(kind);
  std::vector<int> ids;
  for (int id = 0; id < static_cast<int>(task.samples.size()) &&
                   static_cast<int>(ids.size()) < count;
       ++id) {
    ids.push_back(id);
  }
  return ids;
}

TEST(QaQueryTest, KindToTaskMapping) {
  EXPECT_EQ(QaTaskOf(QaQueryKind::kColumnType), TaskKind::kType);
  EXPECT_EQ(QaTaskOf(QaQueryKind::kFindColumnsOfType), TaskKind::kType);
  EXPECT_EQ(QaTaskOf(QaQueryKind::kRelationBetween), TaskKind::kRelation);
  EXPECT_EQ(QaTaskOf(QaQueryKind::kFindRelatedPairs), TaskKind::kRelation);
}

TEST(QaQueryTest, ResolveLabelByName) {
  const core::TaskData& task = Shared().model.task_data(TaskKind::kType);
  ASSERT_FALSE(task.label_names.empty());
  auto hit = ResolveLabel(task, task.label_names.front());
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.value(), 0);
  auto miss = ResolveLabel(task, "no-such-label");
  EXPECT_EQ(miss.status().code(), util::StatusCode::kNotFound);
}

TEST(QaQueryTest, ValidateQueryRejectsMalformedQueries) {
  const InferenceSession& session = Shared().model.session();

  QaQuery query;  // kColumnType, no samples.
  EXPECT_EQ(ValidateQuery(session, query).code(),
            util::StatusCode::kInvalidArgument);

  query.sample_ids = {0, 1};  // Point query with two samples.
  EXPECT_EQ(ValidateQuery(session, query).code(),
            util::StatusCode::kInvalidArgument);

  query.sample_ids = {1 << 20};  // Out of range.
  EXPECT_EQ(ValidateQuery(session, query).code(),
            util::StatusCode::kInvalidArgument);

  query.sample_ids = {0};
  query.label_id = 0;  // Point queries take no target label.
  EXPECT_EQ(ValidateQuery(session, query).code(),
            util::StatusCode::kInvalidArgument);

  query.label_id = -1;
  EXPECT_TRUE(ValidateQuery(session, query).ok());

  QaQuery find;
  find.kind = QaQueryKind::kFindColumnsOfType;
  find.sample_ids = CandidateIds(TaskKind::kType, 4);
  find.label_id = -1;  // "Any" is only meaningful for relation finds.
  EXPECT_EQ(ValidateQuery(session, find).code(),
            util::StatusCode::kInvalidArgument);
  find.label_id = 0;
  find.top_k = 0;
  EXPECT_EQ(ValidateQuery(session, find).code(),
            util::StatusCode::kInvalidArgument);
  find.top_k = 3;
  EXPECT_TRUE(ValidateQuery(session, find).ok());
}

// A point query's answer must assert exactly the teacher's prediction,
// cite a step whose provenance names the prediction it came from, and
// carry evidence items from all three teacher views.
TEST(QaEngineTest, ColumnTypeAnswerMatchesTeacherPrediction) {
  const InferenceSession& session = Shared().model.session();
  QaEngine engine(&session, QaOptions{});

  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {2};
  auto result = engine.Answer(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QaAnswer& answer = result.value();

  ASSERT_EQ(answer.entries.size(), 1u);
  EXPECT_EQ(answer.entries[0].sample_id, 2);
  EXPECT_EQ(answer.entries[0].labels, session.Predict(TaskKind::kType, 2));
  const std::vector<float> probs =
      session.PredictProbabilities(TaskKind::kType, 2);
  float max_prob = 0.0f;
  for (int label : answer.entries[0].labels) {
    max_prob = std::max(max_prob, probs[static_cast<size_t>(label)]);
  }
  EXPECT_EQ(answer.entries[0].confidence, max_prob);

  ASSERT_EQ(answer.justification.steps.size(), 1u);
  const QaStep& step = answer.justification.steps[0];
  EXPECT_EQ(step.step, 0);
  EXPECT_EQ(step.task, TaskKind::kType);
  EXPECT_EQ(step.sample_id, 2);
  EXPECT_EQ(step.tier, QaTier::kTeacher);
  EXPECT_EQ(step.predicted_labels, answer.entries[0].labels);
  EXPECT_EQ(answer.entries[0].step, 0);

  // The fixture model explains every prediction with LE/GE/SE views, so
  // the composed justification must carry items from each.
  bool has_local = false;
  bool has_global = false;
  bool has_structural = false;
  for (const QaEvidenceItem& item : answer.justification.items) {
    EXPECT_EQ(item.step, 0);
    has_local |= item.view == QaView::kLocal;
    has_global |= item.view == QaView::kGlobal;
    has_structural |= item.view == QaView::kStructural;
  }
  EXPECT_TRUE(has_local);
  EXPECT_TRUE(has_global);
  EXPECT_TRUE(has_structural);
  EXPECT_EQ(answer.surrogate_steps, 0);
  EXPECT_TRUE(answer.surrogate_status.ok());
}

// Find-queries must select exactly the candidates the teacher predicts
// as the target label, ranked by confidence, capped at top_k — and keep
// a provenance step for every evaluated candidate, selected or not.
TEST(QaEngineTest, FindColumnsOfTypeSelectsTeacherQualifiers) {
  const InferenceSession& session = Shared().model.session();
  const core::TaskData& task = session.task_data(TaskKind::kType);
  QaEngine engine(&session, QaOptions{});

  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  query.sample_ids = CandidateIds(TaskKind::kType, 8);
  query.top_k = static_cast<int>(query.sample_ids.size());

  // Use the label the teacher predicts for the first candidate so the
  // qualifying set is non-empty by construction.
  query.label_id = session.Predict(TaskKind::kType, query.sample_ids[0])[0];

  auto result = engine.Answer(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QaAnswer& answer = result.value();

  // Expected qualifiers straight from the teacher.
  std::vector<int> expected;
  for (int id : query.sample_ids) {
    const std::vector<int> labels = session.Predict(TaskKind::kType, id);
    const std::vector<float> probs =
        session.PredictProbabilities(TaskKind::kType, id);
    const bool qualifies =
        task.multi_label
            ? probs[static_cast<size_t>(query.label_id)] >= 0.5f
            : std::find(labels.begin(), labels.end(), query.label_id) !=
                  labels.end();
    if (qualifies) expected.push_back(id);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(answer.entries.size(), expected.size());
  std::vector<int> answered;
  for (const QaAnswerEntry& entry : answer.entries) {
    answered.push_back(entry.sample_id);
  }
  std::sort(answered.begin(), answered.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(answered, expected);

  // Ranked by confidence, and every evaluated candidate has a step.
  for (size_t i = 1; i < answer.entries.size(); ++i) {
    EXPECT_GE(answer.entries[i - 1].confidence, answer.entries[i].confidence);
  }
  EXPECT_EQ(answer.justification.steps.size(), query.sample_ids.size());
  for (size_t i = 0; i < answer.justification.steps.size(); ++i) {
    EXPECT_EQ(answer.justification.steps[i].sample_id,
              query.sample_ids[i]);
    EXPECT_EQ(answer.justification.steps[i].step, static_cast<int>(i));
  }
  // top_k truncation.
  query.top_k = 1;
  auto truncated = engine.Answer(query);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated.value().entries.size(), 1u);
  EXPECT_EQ(truncated.value().entries[0].sample_id,
            answer.entries[0].sample_id);
}

TEST(QaEngineTest, RelationQueriesCompose) {
  const InferenceSession& session = Shared().model.session();
  QaEngine engine(&session, QaOptions{});

  QaQuery between;
  between.kind = QaQueryKind::kRelationBetween;
  between.sample_ids = {0};
  auto result = engine.Answer(between);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().entries[0].labels,
            session.Predict(TaskKind::kRelation, 0));

  // "Any relation" find: every candidate qualifies with its top label.
  QaQuery any;
  any.kind = QaQueryKind::kFindRelatedPairs;
  any.sample_ids = CandidateIds(TaskKind::kRelation, 5);
  any.label_id = -1;
  any.top_k = static_cast<int>(any.sample_ids.size());
  auto related = engine.Answer(any);
  ASSERT_TRUE(related.ok()) << related.status().ToString();
  EXPECT_EQ(related.value().entries.size(), any.sample_ids.size());
}

// The cascade-off build is the identity reference: a cascade whose
// threshold escalates everything must produce bit-identical answers (the
// fail-closed path leans on this).
TEST(QaEngineTest, FullyEscalatedCascadeIsBitIdenticalToTeacherOnly) {
  const InferenceSession& session = Shared().model.session();
  QaEngine teacher_only(&session, QaOptions{});
  QaEngine cascade(&session, CascadeOptions());
  ASSERT_TRUE(cascade.surrogate_active());

  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  query.sample_ids = CandidateIds(TaskKind::kType, 6);
  query.label_id = session.Predict(TaskKind::kType, 0)[0];

  auto reference = teacher_only.Answer(query);
  ASSERT_TRUE(reference.ok());
  // Threshold above any reachable confidence: every step escalates.
  auto escalated = cascade.AnswerWithThreshold(query, 1.01f);
  ASSERT_TRUE(escalated.ok());
  EXPECT_TRUE(SameAnswer(reference.value(), escalated.value()));
  EXPECT_EQ(escalated.value().surrogate_steps, 0);
  EXPECT_EQ(escalated.value().escalated_steps,
            static_cast<int>(query.sample_ids.size()));
}

// Threshold 0 routes every step to the surrogate: provenance must say so
// and the justification must carry surrogate saliency items.
TEST(QaEngineTest, ZeroThresholdAnswersEverythingAtSurrogateTier) {
  const InferenceSession& session = Shared().model.session();
  QaEngine cascade(&session, CascadeOptions());
  ASSERT_TRUE(cascade.surrogate_active());

  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {1};
  auto result = cascade.AnswerWithThreshold(query, 0.0f);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const QaAnswer& answer = result.value();
  ASSERT_EQ(answer.justification.steps.size(), 1u);
  EXPECT_EQ(answer.justification.steps[0].tier, QaTier::kSurrogate);
  EXPECT_EQ(answer.surrogate_steps, 1);
  EXPECT_EQ(answer.escalated_steps, 0);
  ASSERT_FALSE(answer.justification.items.empty());
  for (const QaEvidenceItem& item : answer.justification.items) {
    EXPECT_EQ(item.view, QaView::kSurrogate);
    EXPECT_FALSE(item.text.empty());
  }
}

// The surrogate's decode mirrors the teacher's rule, its scoring is
// deterministic, and a warmed scratch makes ScoreInto allocation-free
// (asserted end-to-end by bench_qa; here we assert determinism + decode).
TEST(QaSurrogateTest, ScoreIsDeterministicAndDecodesLikeTeacher) {
  const InferenceSession& session = Shared().model.session();
  auto built =
      SurrogateModel::Distill(session, TaskKind::kType, CascadeOptions());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const SurrogateModel& surrogate = *built.value();

  SurrogateModel::Scratch scratch;
  float confidence1 = 0.0f;
  ASSERT_TRUE(surrogate.ScoreInto(3, &scratch, &confidence1).ok());
  ASSERT_EQ(static_cast<int>(scratch.probs.size()),
            session.task_data(TaskKind::kType).num_labels);
  const std::vector<int> labels1 = scratch.labels;
  const std::vector<float> probs1 = scratch.probs;
  float confidence2 = 0.0f;
  ASSERT_TRUE(surrogate.ScoreInto(3, &scratch, &confidence2).ok());
  EXPECT_EQ(labels1, scratch.labels);
  EXPECT_EQ(probs1, scratch.probs);
  EXPECT_EQ(confidence1, confidence2);
  EXPECT_GE(confidence1, 0.0f);
  EXPECT_LE(confidence1, 1.0f);
  ASSERT_FALSE(labels1.empty());
  // Multiclass type task: the decoded label is the argmax.
  if (!session.task_data(TaskKind::kType).multi_label) {
    int argmax = 0;
    for (size_t l = 1; l < probs1.size(); ++l) {
      if (probs1[l] > probs1[static_cast<size_t>(argmax)]) {
        argmax = static_cast<int>(l);
      }
    }
    EXPECT_EQ(labels1, std::vector<int>{argmax});
  }
  EXPECT_EQ(surrogate.ScoreInto(1 << 20, &scratch, &confidence1).code(),
            util::StatusCode::kInvalidArgument);
}

// Scoring pin: the bytes of every ScoreInto output (logits, probs,
// labels, confidence) over every sample of both tasks, distilled at the
// tests' short schedule and at the default one. The constants were taken
// from the dense [n, D] x [D, L] loops that the nonzero-row training and
// scoring replaced; a change to the features, the schedule or the order
// in which any sum adds its terms moves them. Every logit must also be
// finite: the argument that skipping zero features is bit-identical rests
// on finite weights. Re-capture only for a deliberate change to the
// surrogate.
uint64_t ScoreDigest(const SurrogateModel& surrogate, int num_samples) {
  SurrogateModel::Scratch scratch;
  uint64_t h = util::kFnv64OffsetBasis;
  for (int id = 0; id < num_samples; ++id) {
    float confidence = 0.0f;
    EXPECT_TRUE(surrogate.ScoreInto(id, &scratch, &confidence).ok());
    for (float z : scratch.logits) {
      EXPECT_TRUE(std::isfinite(z)) << "sample " << id;
    }
    h = util::HashBytes(scratch.logits.data(),
                        scratch.logits.size() * sizeof(float), h);
    h = util::HashBytes(scratch.probs.data(),
                        scratch.probs.size() * sizeof(float), h);
    h = util::HashBytes(scratch.labels.data(),
                        scratch.labels.size() * sizeof(int), h);
    h = util::HashBytes(&confidence, sizeof(confidence), h);
  }
  return h;
}

TEST(QaSurrogateTest, ScoresArePinned) {
  struct Pin {
    TaskKind kind;
    bool short_schedule;
    uint64_t digest;
  };
  const Pin pins[] = {
      {TaskKind::kType, true, 0xba17d301e13b9a1eULL},
      {TaskKind::kRelation, true, 0x2bb56899d413714bULL},
      {TaskKind::kType, false, 0x7661ab9ad24d65f2ULL},
      {TaskKind::kRelation, false, 0x045573b22fa1ae19ULL},
  };
  const InferenceSession& session = Shared().model.session();
  for (const Pin& pin : pins) {
    const QaOptions options =
        pin.short_schedule ? CascadeOptions() : QaOptions{};
    auto built = SurrogateModel::Distill(session, pin.kind, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const uint64_t digest = ScoreDigest(
        *built.value(),
        static_cast<int>(session.task_data(pin.kind).samples.size()));
    EXPECT_EQ(digest, pin.digest)
        << core::TaskKindName(pin.kind) << " at "
        << options.surrogate_epochs << " epochs: digest 0x" << std::hex
        << digest;
  }
}

// Composition must not dilute evidence: the pooled justification items
// judged against the union of their steps' oracle evidence cover at
// least as well as the same items judged against their own step's
// evidence alone — and a SimulateJudges run over composed answers stays
// in range.
TEST(QaJudgeTest, ComposedCoverageDoesNotRegressConstituents) {
  const InferenceSession& session = Shared().model.session();
  const core::TaskData& task = session.task_data(TaskKind::kType);
  QaEngine engine(&session, QaOptions{});

  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  query.sample_ids = CandidateIds(TaskKind::kType, 8);
  query.label_id = session.Predict(TaskKind::kType, 0)[0];
  query.top_k = 8;
  auto result = engine.Answer(query);
  ASSERT_TRUE(result.ok());
  const QaAnswer& answer = result.value();
  ASSERT_FALSE(answer.justification.items.empty());

  const explainti::testing::QaCoverage coverage =
      explainti::testing::ComposedJustificationCoverage(task,
                                                        answer.justification);
  EXPECT_GE(coverage.composed, coverage.constituent - 1e-12);
  EXPECT_GE(coverage.composed, 0.0);
  EXPECT_LE(coverage.composed, 1.0);

  const std::vector<eval::JudgedExplanation> judged =
      explainti::testing::JudgedQaAnswer(task, answer);
  ASSERT_EQ(judged.size(), answer.entries.size());
  const eval::HumanEvalResult verdict =
      eval::SimulateJudges(judged, /*num_judges=*/10, /*seed=*/7);
  EXPECT_GE(verdict.adequacy_pct, 0.0);
  EXPECT_LE(verdict.adequacy_pct, 100.0);
  EXPECT_GE(verdict.mean_trust, 1.0);
  EXPECT_LE(verdict.mean_trust, 5.0);
  EXPECT_GE(verdict.evidence_coverage, 0.0);
  EXPECT_LE(verdict.evidence_coverage, 1.0);
}

// ---------------------------------------------------------------------------
// Serving integration.
// ---------------------------------------------------------------------------

serve::ServeRequest QaRequest(const QaQuery& query, uint64_t trace_id = 0) {
  serve::ServeRequest request;
  request.method = serve::ServeMethod::kQaAnswer;
  request.qa = query;
  request.trace_id = trace_id;
  return request;
}

TEST(QaServeTest, ServerAnswersQaRequests) {
  const InferenceSession& session = Shared().model.session();
  serve::ServerOptions options;
  options.num_workers = 2;
  options.qa.enabled = true;
  serve::InferenceServer server(session, options);

  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {4};
  serve::ServeResponse response = server.ServeSync(QaRequest(query, 99));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.trace_id, 99u);
  EXPECT_EQ(response.model_generation, 1u);

  ASSERT_NE(server.qa_engine(), nullptr);
  auto direct = server.qa_engine()->Answer(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(SameAnswer(response.qa, direct.value()));
  EXPECT_EQ(server.metrics().GetCounter("serve.qa_accepted")->Value(), 1);
  EXPECT_EQ(server.metrics().GetCounter("qa.answered")->Value(), 1);
}

TEST(QaServeTest, QaDisabledServerRejectsAtAdmission) {
  const InferenceSession& session = Shared().model.session();
  serve::InferenceServer server(session, serve::ServerOptions{});
  EXPECT_EQ(server.qa_engine(), nullptr);

  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {0};
  serve::ServeResponse response = server.ServeSync(QaRequest(query));
  EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
}

TEST(QaServeTest, MalformedQueryRejectedBeforeQueue) {
  const InferenceSession& session = Shared().model.session();
  serve::ServerOptions options;
  options.qa.enabled = true;
  serve::InferenceServer server(session, options);

  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  query.sample_ids = {0, 1 << 20};
  query.label_id = 0;
  serve::ServeResponse response = server.ServeSync(QaRequest(query));
  EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
  // The rejection names the first offending candidate.
  EXPECT_NE(response.status.message().find("sample_id 1048576"),
            std::string::npos)
      << response.status.ToString();
  query.sample_ids.clear();
  response = server.ServeSync(QaRequest(query));
  EXPECT_EQ(response.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("request names no sample"),
            std::string::npos)
      << response.status.ToString();
  EXPECT_EQ(server.metrics().GetCounter("serve.accepted")->Value(), 0);
}

// Regression for the QA cache contract: a hit returns the full
// QaJustification bit-identically, never collides with an Explain entry
// for the same table, and never answers a different query.
TEST(QaServeTest, QaCacheHitIsBitIdenticalAndCollisionFree) {
  const InferenceSession& session = Shared().model.session();
  serve::ServerOptions options;
  options.num_workers = 2;
  options.qa.enabled = true;
  options.cache.enabled = true;
  options.cache.capacity = 64;
  serve::InferenceServer server(session, options);

  QaQuery query;
  query.kind = QaQueryKind::kFindColumnsOfType;
  query.sample_ids = CandidateIds(TaskKind::kType, 5);
  query.label_id = session.Predict(TaskKind::kType, 0)[0];

  serve::ServeResponse first = server.ServeSync(QaRequest(query));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  serve::ServeResponse second = server.ServeSync(QaRequest(query));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(SameAnswer(first.qa, second.qa));
  ASSERT_EQ(second.qa.justification.items.size(),
            first.qa.justification.items.size());
  for (size_t i = 0; i < first.qa.justification.items.size(); ++i) {
    EXPECT_EQ(second.qa.justification.items[i].text,
              first.qa.justification.items[i].text);
    EXPECT_EQ(second.qa.justification.items[i].score,
              first.qa.justification.items[i].score);
  }

  // An Explain request for the same primary table must compute its own
  // entry (method is part of the key), and its payload is an
  // explanation, not a QA answer.
  serve::ServeRequest explain;
  explain.method = serve::ServeMethod::kExplain;
  explain.task = TaskKind::kType;
  explain.sample_id = query.sample_ids[0];
  serve::ServeResponse explained = server.ServeSync(explain);
  ASSERT_TRUE(explained.status.ok());
  EXPECT_FALSE(explained.cache_hit);
  EXPECT_FALSE(explained.explanation.predicted_labels.empty());
  EXPECT_TRUE(explained.qa.entries.empty());

  // A different query over the same primary sample (narrower candidate
  // set) must miss and compute its own answer.
  QaQuery narrower = query;
  narrower.sample_ids.pop_back();
  serve::ServeResponse third = server.ServeSync(QaRequest(narrower));
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.qa.justification.steps.size(), narrower.sample_ids.size());
}

TEST(QaServeTest, PerTenantQaCounter) {
  const InferenceSession& session = Shared().model.session();
  serve::TenantRegistry tenants;
  serve::TenantOptions tenant;
  tenant.name = "qa-tenant";
  const int tenant_id = tenants.Register(tenant);

  serve::ServerOptions options;
  options.num_workers = 1;
  options.qa.enabled = true;
  options.tenants = &tenants;
  serve::InferenceServer server(session, options);

  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {0};
  serve::ServeRequest request = QaRequest(query);
  request.tenant_id = tenant_id;
  serve::ServeResponse response = server.ServeSync(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(
      server.metrics().GetCounter("serve.tenant.qa-tenant.qa_accepted")
          ->Value(),
      1);
}

// Tier-1 fail-closed smoke (failed distillation lives in
// qa_chaos_test.cc): a query that fails validation is a typed error,
// never a partial answer.
TEST(QaFaultTest, InvalidQueryIsTypedNeverPartial) {
  const InferenceSession& session = Shared().model.session();
  QaEngine engine(&session, QaOptions{});
  QaQuery query;
  query.kind = QaQueryKind::kColumnType;
  query.sample_ids = {static_cast<int>(
      session.task_data(TaskKind::kType).samples.size())};

  auto rejected = engine.Answer(query);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kInvalidArgument);

  query.sample_ids = {0};
  auto healthy = engine.Answer(query);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().entries.empty());
}

}  // namespace
}  // namespace explainti::qa
