// Finite-difference verification of every differentiable op's backward
// pass — the correctness bedrock of the whole training pipeline.

#include "gradcheck.h"

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace explainti::tensor {
namespace {

struct GradCase {
  std::string name;
  // Builds (inputs, loss_fn) pair; loss_fn must re-read input values.
  std::function<std::pair<std::vector<Tensor>,
                          std::function<Tensor()>>()>
      make;
};

std::vector<Tensor> MakeInputs(const std::vector<Shape>& shapes,
                               uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Tensor> inputs;
  for (const Shape& shape : shapes) {
    Tensor t = Tensor::Randn(shape, rng, 0.8f);
    t.set_requires_grad(true);
    inputs.push_back(t);
  }
  return inputs;
}

class GradCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  auto [inputs, loss_fn] = GetParam().make();
  const GradCheckResult result = GradCheck(loss_fn, inputs, 1e-2f);
  EXPECT_GT(result.entries_checked, 0);
  EXPECT_LT(result.max_rel_error, 0.05f)
      << GetParam().name << ": max abs error " << result.max_abs_error;
}

std::vector<GradCase> AllCases() {
  std::vector<GradCase> cases;

  cases.push_back({"add", [] {
    auto inputs = MakeInputs({{3, 4}, {3, 4}}, 1);
    auto fn = [inputs] { return Sum(Add(inputs[0], inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"add_broadcast", [] {
    auto inputs = MakeInputs({{3, 4}, {4}}, 2);
    auto fn = [inputs] {
      return Mean(Mul(Add(inputs[0], inputs[1]), Add(inputs[0], inputs[1])));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"sub_mul", [] {
    auto inputs = MakeInputs({{2, 3}, {2, 3}}, 3);
    auto fn = [inputs] { return Sum(Mul(Sub(inputs[0], inputs[1]), inputs[0])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"mul_broadcast", [] {
    auto inputs = MakeInputs({{3, 4}, {4}}, 4);
    auto fn = [inputs] { return Sum(Mul(inputs[0], inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"scale", [] {
    auto inputs = MakeInputs({{5}}, 5);
    auto fn = [inputs] { return Sum(Mul(Scale(inputs[0], 1.7f), inputs[0])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"matmul", [] {
    auto inputs = MakeInputs({{3, 4}, {4, 2}}, 6);
    auto fn = [inputs] { return Sum(MatMul(inputs[0], inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"matmul_vec", [] {
    auto inputs = MakeInputs({{4}, {4, 3}}, 7);
    auto fn = [inputs] { return Sum(MatMul(inputs[0], inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"transpose", [] {
    auto inputs = MakeInputs({{3, 2}}, 8);
    auto fn = [inputs] {
      return Sum(MatMul(Transpose(inputs[0]), inputs[0]));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"l2_normalize", [] {
    auto inputs = MakeInputs({{5}, {5}}, 10);
    auto fn = [inputs] { return Sum(Mul(L2Normalize(inputs[0]), inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"reshape_slice", [] {
    auto inputs = MakeInputs({{4, 3}}, 11);
    auto fn = [inputs] {
      return Sum(SliceRows(Reshape(inputs[0], {3, 4}), 1, 3));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"slice_cols", [] {
    auto inputs = MakeInputs({{3, 6}}, 12);
    auto fn = [inputs] {
      return Mean(Mul(SliceCols(inputs[0], 1, 4), SliceCols(inputs[0], 2, 5)));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"concat", [] {
    auto inputs = MakeInputs({{3}, {4}}, 13);
    auto fn = [inputs] {
      Tensor c = Concat(inputs[0], inputs[1]);
      return Sum(Mul(c, c));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"concat_cols", [] {
    auto inputs = MakeInputs({{2, 3}, {2, 2}}, 14);
    auto fn = [inputs] {
      return Sum(Mul(ConcatCols({inputs[0], inputs[1]}),
                     ConcatCols({inputs[1], inputs[0]})));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"meanrows", [] {
    auto inputs = MakeInputs({{3, 4}}, 15);
    auto fn = [inputs] {
      return Sum(Mul(MeanRows(inputs[0]), MeanRows(inputs[0])));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"relu", [] {
    auto inputs = MakeInputs({{6}}, 16);
    auto fn = [inputs] { return Sum(Relu(inputs[0])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"gelu", [] {
    auto inputs = MakeInputs({{6}}, 17);
    auto fn = [inputs] { return Sum(Gelu(inputs[0])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"sigmoid", [] {
    auto inputs = MakeInputs({{6}}, 19);
    auto fn = [inputs] { return Sum(Mul(SigmoidOp(inputs[0]), inputs[0])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"softmax", [] {
    auto inputs = MakeInputs({{2, 5}, {2, 5}}, 20);
    auto fn = [inputs] { return Sum(Mul(Softmax(inputs[0]), inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"log_softmax", [] {
    auto inputs = MakeInputs({{2, 5}, {2, 5}}, 21);
    auto fn = [inputs] { return Sum(Mul(LogSoftmax(inputs[0]), inputs[1])); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"layer_norm", [] {
    auto inputs = MakeInputs({{3, 6}, {6}, {6}}, 22);
    auto fn = [inputs] {
      return Sum(Mul(LayerNorm(inputs[0], inputs[1], inputs[2]), inputs[0]));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"embedding", [] {
    auto inputs = MakeInputs({{5, 3}}, 23);
    auto fn = [inputs] {
      Tensor e = EmbeddingLookup(inputs[0], {0, 2, 2, 4});
      return Sum(Mul(e, e));
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"cross_entropy", [] {
    auto inputs = MakeInputs({{6}}, 24);
    auto fn = [inputs] { return CrossEntropyLoss(inputs[0], 2); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"bce_with_logits", [] {
    auto inputs = MakeInputs({{4}}, 26);
    auto fn = [inputs] {
      return BceWithLogitsLoss(inputs[0], {1.0f, 0.0f, 1.0f, 0.0f});
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"nll_from_probs", [] {
    auto inputs = MakeInputs({{4}}, 27);
    auto fn = [inputs] { return NllFromProbs(Softmax(inputs[0]), 1); };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});
  cases.push_back({"bce_from_probs", [] {
    auto inputs = MakeInputs({{4}}, 28);
    auto fn = [inputs] {
      return BceFromProbs(SigmoidOp(inputs[0]), {0.0f, 1.0f, 1.0f, 0.0f});
    };
    return std::make_pair(inputs, std::function<Tensor()>(fn));
  }});

  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllOps, GradCheckTest,
                         ::testing::ValuesIn(AllCases()),
                         [](const ::testing::TestParamInfo<GradCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace explainti::tensor
