#include <vector>

#include <gtest/gtest.h>

#include "eval/f1_metrics.h"
#include "eval/human_sim.h"
#include "eval/sufficiency.h"

namespace explainti::eval {
namespace {

TEST(F1Test, PerfectPredictionsScoreOne) {
  std::vector<LabeledPrediction> predictions = {
      {{0}, {0}}, {{1}, {1}}, {{2}, {2}}};
  const F1Scores f1 = ComputeF1(predictions, 3);
  EXPECT_DOUBLE_EQ(f1.micro, 1.0);
  EXPECT_DOUBLE_EQ(f1.macro, 1.0);
  EXPECT_DOUBLE_EQ(f1.weighted, 1.0);
}

TEST(F1Test, AllWrongScoresZero) {
  std::vector<LabeledPrediction> predictions = {{{0}, {1}}, {{1}, {0}}};
  const F1Scores f1 = ComputeF1(predictions, 2);
  EXPECT_DOUBLE_EQ(f1.micro, 0.0);
  EXPECT_DOUBLE_EQ(f1.macro, 0.0);
  EXPECT_DOUBLE_EQ(f1.weighted, 0.0);
}

TEST(F1Test, HandComputedMultiClassCase) {
  // Label 0: tp=1 fp=1 fn=0 -> P=0.5 R=1 F1=2/3.
  // Label 1: tp=0 fp=0 fn=1 -> F1=0.
  std::vector<LabeledPrediction> predictions = {{{0}, {0}}, {{1}, {0}}};
  const F1Scores f1 = ComputeF1(predictions, 2);
  EXPECT_NEAR(f1.micro, 0.5, 1e-9);  // tp=1, fp=1, fn=1.
  EXPECT_NEAR(f1.macro, (2.0 / 3.0) / 2.0, 1e-9);
  EXPECT_NEAR(f1.weighted, (2.0 / 3.0 * 1 + 0.0 * 1) / 2.0, 1e-9);
}

TEST(F1Test, MultiLabelPartialOverlap) {
  // gold {0,1}, predicted {1,2}: tp(1)=1, fp(2)=1, fn(0)=1.
  std::vector<LabeledPrediction> predictions = {{{0, 1}, {1, 2}}};
  const F1Scores f1 = ComputeF1(predictions, 3);
  EXPECT_NEAR(f1.micro, 2.0 * 1 / (2.0 * 1 + 1 + 1), 1e-9);
}

TEST(F1Test, WeightedUsesSupport) {
  // Label 0 has support 3 (all correct), label 1 support 1 (wrong):
  // weighted = (1*3 + 0*1)/4 = 0.75; macro = 0.5.
  std::vector<LabeledPrediction> predictions = {
      {{0}, {0}}, {{0}, {0}}, {{0}, {0}}, {{1}, {0}}};
  const F1Scores f1 = ComputeF1(predictions, 2);
  EXPECT_GT(f1.weighted, f1.macro);
  EXPECT_NEAR(f1.macro, 0.5 * (6.0 / 7.0), 1e-9);  // L0: 2*3/(6+1)=6/7.
  EXPECT_NEAR(f1.weighted, (6.0 / 7.0) * 0.75, 1e-9);
}

TEST(F1Test, UnseenLabelsDiluteMacroOnly) {
  std::vector<LabeledPrediction> predictions = {{{0}, {0}}};
  const F1Scores f1 = ComputeF1(predictions, 10);
  EXPECT_DOUBLE_EQ(f1.micro, 1.0);
  EXPECT_DOUBLE_EQ(f1.weighted, 1.0);
  EXPECT_NEAR(f1.macro, 0.1, 1e-9);
}

TEST(DecodeLabelsTest, MultiClassTakesTheFirstArgmax) {
  std::vector<int> labels;
  AppendDecodedLabels(std::vector<float>{0.1f, 0.7f, 0.2f, 0.7f}, false,
                      0.5f, &labels);
  EXPECT_EQ(labels, (std::vector<int>{1}));
}

TEST(DecodeLabelsTest, MultiLabelTakesEveryScoreAtOrAboveTheThreshold) {
  std::vector<int> labels;
  AppendDecodedLabels(std::vector<float>{0.5f, 0.49f, 0.9f, 0.5f}, true,
                      0.5f, &labels);
  EXPECT_EQ(labels, (std::vector<int>{0, 2, 3}));
  labels.clear();
  AppendDecodedLabels(std::vector<float>{0.0f, -0.1f, 2.0f}, true, 0.0f,
                      &labels);
  EXPECT_EQ(labels, (std::vector<int>{0, 2}));
}

TEST(DecodeLabelsTest, MultiLabelAllBelowFallsBackToTheFirstArgmax) {
  std::vector<int> labels;
  AppendDecodedLabels(std::vector<float>{0.1f, 0.4f, 0.2f, 0.4f}, true, 0.5f,
                      &labels);
  EXPECT_EQ(labels, (std::vector<int>{1}));
}

// The decode appends: a caller reusing one vector keeps what it held, and
// a warm vector takes a decode without allocating.
TEST(DecodeLabelsTest, AppendsToTheCallersVector) {
  std::vector<int> labels = {7};
  labels.reserve(8);
  const int* storage = labels.data();
  AppendDecodedLabels(std::vector<float>{0.6f, 0.1f, 0.8f}, true, 0.5f,
                      &labels);
  EXPECT_EQ(labels, (std::vector<int>{7, 0, 2}));
  EXPECT_EQ(labels.data(), storage);
  AppendDecodedLabels(std::vector<float>{0.1f, 0.3f}, true, 0.5f, &labels);
  EXPECT_EQ(labels, (std::vector<int>{7, 0, 2, 1}));
}

TEST(SufficiencyTest, SeparableTextsScoreHigh) {
  ExplanationDataset dataset;
  dataset.num_labels = 2;
  dataset.multi_label = false;
  for (int i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    dataset.train_texts.push_back(positive ? "lakers celtics basketball"
                                           : "rome paris country");
    dataset.train_labels.push_back({positive ? 0 : 1});
  }
  for (int i = 0; i < 10; ++i) {
    const bool positive = i % 2 == 0;
    dataset.test_texts.push_back(positive ? "celtics basketball game"
                                          : "paris country capital");
    dataset.test_labels.push_back({positive ? 0 : 1});
  }
  const F1Scores f1 = EvaluateSufficiency(dataset);
  EXPECT_GT(f1.weighted, 0.9);
}

TEST(SufficiencyTest, UninformativeTextsScoreLow) {
  ExplanationDataset dataset;
  dataset.num_labels = 4;
  dataset.multi_label = false;
  for (int i = 0; i < 60; ++i) {
    dataset.train_texts.push_back("the same text every time");
    dataset.train_labels.push_back({i % 4});
  }
  for (int i = 0; i < 20; ++i) {
    dataset.test_texts.push_back("the same text every time");
    dataset.test_labels.push_back({i % 4});
  }
  const F1Scores f1 = EvaluateSufficiency(dataset);
  EXPECT_LT(f1.macro, 0.5);
}

JudgedExplanation Covering() {
  JudgedExplanation j;
  j.items = {"title nba draft player", "header player cell"};
  j.evidence = {"nba", "player"};
  j.prediction_correct = true;
  j.sample_tokens = 30;
  return j;
}

JudgedExplanation NonCovering() {
  JudgedExplanation j;
  j.items = {"random words here", "nothing relevant"};
  j.evidence = {"nba", "player"};
  j.prediction_correct = true;
  j.sample_tokens = 30;
  return j;
}

TEST(HumanSimTest, CoveringExplanationsScoreHigher) {
  std::vector<JudgedExplanation> good(20, Covering());
  std::vector<JudgedExplanation> bad(20, NonCovering());
  const HumanEvalResult good_result = SimulateJudges(good, 20, 1);
  const HumanEvalResult bad_result = SimulateJudges(bad, 20, 1);
  EXPECT_GT(good_result.adequacy_pct, bad_result.adequacy_pct + 20.0);
  EXPECT_GT(good_result.mean_trust, bad_result.mean_trust + 0.5);
  EXPECT_GT(good_result.evidence_coverage, 0.9);
  EXPECT_LT(bad_result.evidence_coverage, 0.1);
}

TEST(HumanSimTest, SingleTokenItemsReadWorseThanPhrases) {
  JudgedExplanation scattered;
  scattered.items = {"nba", "player", "cell", "the", "of"};
  scattered.evidence = {"nba", "player"};
  scattered.prediction_correct = true;
  scattered.sample_tokens = 30;
  std::vector<JudgedExplanation> tokens(20, scattered);
  std::vector<JudgedExplanation> phrases(20, Covering());
  const HumanEvalResult token_result = SimulateJudges(tokens, 20, 2);
  const HumanEvalResult phrase_result = SimulateJudges(phrases, 20, 2);
  EXPECT_GT(phrase_result.understandability_pct,
            token_result.understandability_pct);
}

TEST(HumanSimTest, ResultsDeterministicPerSeed) {
  std::vector<JudgedExplanation> samples(10, Covering());
  const HumanEvalResult a = SimulateJudges(samples, 10, 5);
  const HumanEvalResult b = SimulateJudges(samples, 10, 5);
  EXPECT_DOUBLE_EQ(a.adequacy_pct, b.adequacy_pct);
  EXPECT_DOUBLE_EQ(a.mean_trust, b.mean_trust);
}

TEST(VerificationSimTest, CoveringExplanationsSaveTime) {
  std::vector<JudgedExplanation> good(30, Covering());
  const VerificationOutcome outcome = SimulateVerification(good, 3);
  EXPECT_GT(outcome.reduction_pct, 5.0);
  EXPECT_LT(outcome.mean_seconds_with, outcome.mean_seconds_without);
}

TEST(VerificationSimTest, UselessExplanationsCostTime) {
  std::vector<JudgedExplanation> bad(30, NonCovering());
  const VerificationOutcome outcome = SimulateVerification(bad, 4);
  // Reading explanations that do not cover the evidence adds overhead.
  EXPECT_LT(outcome.reduction_pct, 5.0);
}

}  // namespace
}  // namespace explainti::eval
