#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "nn/encoder.h"
#include "nn/heads.h"
#include "nn/linear.h"
#include "nn/pretrain.h"
#include "text/vocab.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace explainti::nn {
namespace {

TransformerConfig SmallConfig() {
  TransformerConfig config;
  config.vocab_size = 50;
  config.d_model = 16;
  config.num_heads = 2;
  config.num_layers = 2;
  config.ffn_dim = 32;
  config.max_len = 16;
  config.dropout = 0.1f;
  return config;
}

TEST(LinearTest, ShapesAndBias) {
  util::Rng rng(1);
  Linear linear(3, 2, rng);
  tensor::Tensor x = tensor::Tensor::FromVector({3}, {1, 0, 0});
  tensor::Tensor y = linear.Forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2}));
  // y = W[0,:] + b; bias starts at zero so y equals first weight row.
  EXPECT_FLOAT_EQ(y.at(0), linear.weight().at(0));
  EXPECT_FLOAT_EQ(y.at(1), linear.weight().at(1));
}

TEST(LinearTest, BatchedInput) {
  util::Rng rng(2);
  Linear linear(4, 3, rng);
  tensor::Tensor x = tensor::Tensor::Zeros({5, 4});
  EXPECT_EQ(linear.Forward(x).shape(), (tensor::Shape{5, 3}));
}

TEST(ModuleTest, ParameterCollectionIsRecursive) {
  util::Rng rng(3);
  TransformerEncoder encoder(SmallConfig(), rng);
  // embeddings: 3 tables + 2 LN params; per layer: 4 linears (2 params
  // each) + 2 FFN linears + 4 LN params.
  EXPECT_GT(encoder.Parameters().size(), 20u);
  EXPECT_GT(encoder.ParameterCount(), 1000);
}

TEST(EmbeddingsTest, OutputShape) {
  util::Rng rng(4);
  TransformerConfig config = SmallConfig();
  TransformerEmbeddings embeddings(config, rng);
  util::Rng dropout_rng(5);
  tensor::Tensor out =
      embeddings.Forward({5, 6, 7}, {0, 0, 1},
                         ExecContext::Eval(&dropout_rng));
  EXPECT_EQ(out.shape(), (tensor::Shape{3, 16}));
}

TEST(EmbeddingsTest, SegmentEmbeddingChangesOutput) {
  util::Rng rng(6);
  TransformerConfig config = SmallConfig();
  TransformerEmbeddings embeddings(config, rng);
  util::Rng dropout_rng(7);
  tensor::Tensor a =
      embeddings.Forward({5, 6}, {0, 0}, ExecContext::Eval(&dropout_rng));
  tensor::Tensor b =
      embeddings.Forward({5, 6}, {0, 1}, ExecContext::Eval(&dropout_rng));
  EXPECT_NE(a.ToVector(), b.ToVector());
}

TEST(EmbeddingsTest, SegmentsIgnoredWhenDisabled) {
  util::Rng rng(8);
  TransformerConfig config = SmallConfig();
  config.use_segments = false;  // RoBERTa flavour.
  TransformerEmbeddings embeddings(config, rng);
  util::Rng dropout_rng(9);
  tensor::Tensor a =
      embeddings.Forward({5, 6}, {0, 0}, ExecContext::Eval(&dropout_rng));
  tensor::Tensor b =
      embeddings.Forward({5, 6}, {0, 1}, ExecContext::Eval(&dropout_rng));
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(AttentionTest, OutputShapePreserved) {
  util::Rng rng(10);
  MultiHeadSelfAttention attention(SmallConfig(), rng);
  util::Rng dropout_rng(11);
  tensor::Tensor x = tensor::Tensor::Randn({5, 16}, rng, 1.0f);
  tensor::Tensor out =
      attention.Forward(x, tensor::Tensor(), ExecContext::Eval(&dropout_rng));
  EXPECT_EQ(out.shape(), (tensor::Shape{5, 16}));
}

TEST(AttentionTest, MaskBlocksInformationFlow) {
  util::Rng rng(12);
  MultiHeadSelfAttention attention(SmallConfig(), rng);
  util::Rng dropout_rng(13);
  tensor::Tensor x = tensor::Tensor::Randn({3, 16}, rng, 1.0f);

  // Fully-open mask vs a mask where token 0 cannot see token 2.
  std::vector<float> open(9, 0.0f);
  std::vector<float> blocked = open;
  blocked[2] = -1e9f;  // (query 0, key 2).
  tensor::Tensor out_open = attention.Forward(
      x, tensor::Tensor::FromVector({3, 3}, open),
      ExecContext::Eval(&dropout_rng));
  tensor::Tensor out_blocked = attention.Forward(
      x, tensor::Tensor::FromVector({3, 3}, blocked),
      ExecContext::Eval(&dropout_rng));

  // Row 0 must change; rows 1 and 2 are untouched.
  bool row0_differs = false;
  for (int64_t j = 0; j < 16; ++j) {
    if (out_open.at(j) != out_blocked.at(j)) row0_differs = true;
    EXPECT_FLOAT_EQ(out_open.at(16 + j), out_blocked.at(16 + j));
    EXPECT_FLOAT_EQ(out_open.at(32 + j), out_blocked.at(32 + j));
  }
  EXPECT_TRUE(row0_differs);
}

TEST(EncoderTest, ForwardDeterministicInEvalMode) {
  util::Rng rng(14);
  TransformerEncoder encoder(SmallConfig(), rng);
  util::Rng r1(1);
  util::Rng r2(2);
  tensor::Tensor a = encoder.Forward({3, 4, 5}, {}, ExecContext::Eval(&r1));
  tensor::Tensor b = encoder.Forward({3, 4, 5}, {}, ExecContext::Eval(&r2));
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(EncoderTest, DropoutMakesTrainingStochastic) {
  util::Rng rng(15);
  TransformerEncoder encoder(SmallConfig(), rng);
  util::Rng r1(1);
  tensor::Tensor a = encoder.Forward({3, 4, 5}, {}, ExecContext::Train(r1));
  tensor::Tensor b = encoder.Forward({3, 4, 5}, {}, ExecContext::Train(r1));
  EXPECT_NE(a.ToVector(), b.ToVector());
}

TEST(EncoderTest, GradientsReachAllParameters) {
  util::Rng rng(16);
  TransformerConfig config = SmallConfig();
  config.dropout = 0.0f;
  TransformerEncoder encoder(config, rng);
  util::Rng fwd_rng(17);
  tensor::Tensor out =
      encoder.Forward({1, 2, 3, 4}, {}, ExecContext::Train(fwd_rng));
  tensor::Mean(out).Backward();
  int with_grad = 0;
  for (const tensor::Tensor& p : encoder.Parameters()) {
    if (p.has_grad()) {
      float norm = 0.0f;
      for (int64_t i = 0; i < p.size(); ++i) norm += std::abs(p.grad()[i]);
      if (norm > 0.0f) ++with_grad;
    }
  }
  // All parameter tensors except unused position/segment rows get signal.
  EXPECT_GT(with_grad,
            static_cast<int>(encoder.Parameters().size()) * 3 / 4);
}

// Serve keeps the tape's input guards: a length outside [1, max_len] and
// a segment vector of the wrong length die, as Forward does.
TEST(EncoderDeathTest, ServeRejectsWhatForwardRejects) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  util::Rng rng(23);
  const TransformerConfig config = SmallConfig();
  TransformerEncoder encoder(config, rng);
  const std::vector<int> too_long(static_cast<size_t>(config.max_len + 1), 5);
  std::vector<float> scratch(
      static_cast<size_t>(encoder.ServeScratchFloats(config.max_len + 1)));
  std::vector<float> out(static_cast<size_t>(config.d_model));
  EXPECT_DEATH(encoder.Serve({}, {}, scratch.data(), out.data(), 1),
               "Check failed");
  EXPECT_DEATH(
      encoder.Serve(too_long, {}, scratch.data(), out.data(), 1),
      "longer than max_len");
  EXPECT_DEATH(
      encoder.Serve({5, 6, 7}, {0, 1}, scratch.data(), out.data(), 1),
      "Check failed");
}

TEST(HeadsTest, ClassifierOutputsNumLabels) {
  util::Rng rng(18);
  ClassifierHead head(16, 7, rng);
  EXPECT_EQ(head.num_labels(), 7);
  tensor::Tensor logits =
      head.Forward(tensor::Tensor::Zeros({16}));
  EXPECT_EQ(logits.shape(), (tensor::Shape{7}));
}

TEST(MlmPretrainTest, LossDecreasesOnTinyCorpus) {
  util::Rng rng(19);
  TransformerConfig config = SmallConfig();
  TransformerEncoder encoder(config, rng);

  // A tiny corpus of patterned sequences the model can memorise.
  std::vector<std::vector<int>> sequences;
  util::Rng data_rng(20);
  for (int i = 0; i < 24; ++i) {
    std::vector<int> seq = {text::SpecialTokens::kCls};
    const int base = 10 + static_cast<int>(data_rng.UniformInt(3)) * 10;
    for (int j = 0; j < 10; ++j) seq.push_back(base + j);
    seq.push_back(text::SpecialTokens::kSep);
    sequences.push_back(seq);
  }
  std::vector<std::vector<int>> segments(sequences.size());

  MlmPretrainOptions options;
  options.epochs = 1;
  options.seed = 5;
  const MlmPretrainStats first =
      PretrainMlm(&encoder, sequences, segments, options);

  options.epochs = 6;
  const MlmPretrainStats later =
      PretrainMlm(&encoder, sequences, segments, options);
  EXPECT_LT(later.final_epoch_loss, first.final_epoch_loss);
  EXPECT_GT(later.masked_tokens_total, 0);
  EXPECT_GT(later.steps, 0);
}

TEST(MlmPretrainTest, DynamicMaskingStillTrains) {
  util::Rng rng(21);
  TransformerEncoder encoder(SmallConfig(), rng);
  std::vector<std::vector<int>> sequences(8, std::vector<int>{2, 10, 11, 12,
                                                              13, 14, 3});
  std::vector<std::vector<int>> segments(sequences.size());
  MlmPretrainOptions options;
  options.epochs = 2;
  options.dynamic_masking = true;
  const MlmPretrainStats stats =
      PretrainMlm(&encoder, sequences, segments, options);
  EXPECT_GT(stats.masked_tokens_total, 0);
}

}  // namespace
}  // namespace explainti::nn
