#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/grad_check.h"
#include "nn/ops.h"
#include "nn/tensor.h"

// Gradient correctness: every differentiable op is verified against central
// finite differences through MaxGradError, plus hand-checked simple cases.

namespace garl::nn {
namespace {

constexpr float kTol = 2e-2f;  // float32 finite differences are noisy

Tensor RandomTensor(std::vector<int64_t> shape, uint64_t seed,
                    float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  Tensor t = Tensor::Zeros(std::move(shape), /*requires_grad=*/true);
  for (float& v : t.mutable_data()) v = rng.UniformF(lo, hi);
  return t;
}

TEST(AutogradTest, SimpleChainHandChecked) {
  // y = sum((2x)^2); dy/dx = 8x.
  Tensor x = Tensor::FromVector({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor y = Sum(Square(MulScalar(x, 2.0f)));
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 16.0f);
  EXPECT_FLOAT_EQ(x.grad()[2], 24.0f);
}

TEST(AutogradTest, GradAccumulatesWhenReused) {
  // y = sum(x * x_detached + x) uses x twice -> grads add.
  Tensor x = Tensor::FromVector({2}, {3, 4}, /*requires_grad=*/true);
  Tensor y = Sum(Add(x, x));  // dy/dx = 2
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
}

TEST(AutogradTest, DetachBlocksGradient) {
  Tensor x = Tensor::FromVector({2}, {1, 2}, /*requires_grad=*/true);
  Tensor y = Sum(Mul(x.Detach(), x));  // only one path differentiable
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
}

TEST(AutogradTest, DiamondGraph) {
  // z = sum((x + x^2) * x): verifies topological ordering on a diamond.
  Tensor x = RandomTensor({4}, 1);
  float err = MaxGradError(x, [](const Tensor& t) {
    return Sum(Mul(Add(t, Square(t)), t));
  });
  EXPECT_LT(err, kTol);
}

struct OpCase {
  const char* name;
  std::function<Tensor(const Tensor&)> loss;
  std::vector<int64_t> shape;
  float lo = -1.0f, hi = 1.0f;
};

// Without this gtest prints the raw bytes of the case, pointers included, and
// the ctest names that gtest_discover_tests builds from them change with ASLR.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class OpGradTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradTest, MatchesFiniteDifference) {
  const OpCase& c = GetParam();
  Tensor x = RandomTensor(c.shape, 42, c.lo, c.hi);
  EXPECT_LT(MaxGradError(x, c.loss), kTol) << c.name;
}

Tensor Weights(int64_t n, int64_t m, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Zeros({n, m});
  for (float& v : t.mutable_data()) v = rng.UniformF(-1, 1);
  return t;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        OpCase{"add", [](const Tensor& t) {
                 return Sum(Square(Add(t, Tensor::Full(t.shape(), 0.7f))));
               }, {3, 2}},
        OpCase{"sub", [](const Tensor& t) {
                 return Sum(Square(Sub(MulScalar(t, 2.0f),
                                       Tensor::Full(t.shape(), 0.3f))));
               }, {4}},
        OpCase{"mul", [](const Tensor& t) {
                 return Sum(Mul(t, AddScalar(t, 1.0f)));
               }, {4}},
        OpCase{"div", [](const Tensor& t) {
                 return Sum(Div(Tensor::Full(t.shape(), 1.0f), t));
               }, {3}, 0.5f, 2.0f},
        OpCase{"exp", [](const Tensor& t) { return Sum(Exp(t)); }, {4}},
        OpCase{"log", [](const Tensor& t) { return Sum(Log(t)); },
               {4}, 0.5f, 2.0f},
        OpCase{"sqrt", [](const Tensor& t) { return Sum(Sqrt(t)); },
               {4}, 0.5f, 2.0f},
        OpCase{"tanh", [](const Tensor& t) { return Sum(Tanh(t)); }, {5}},
        OpCase{"sigmoid", [](const Tensor& t) {
                 return Sum(Sigmoid(t));
               }, {5}},
        OpCase{"relu", [](const Tensor& t) {
                 return Sum(Relu(t));
               }, {6}, 0.1f, 1.0f},  // keep away from the kink
        OpCase{"clip", [](const Tensor& t) {
                 return Sum(Clip(t, -0.5f, 0.5f));
               }, {6}, -0.4f, 0.4f},
        OpCase{"matmul_lhs", [](const Tensor& t) {
                 return Sum(MatMul(t, Weights(3, 2, 7)));
               }, {2, 3}},
        OpCase{"matmul_rhs", [](const Tensor& t) {
                 return Sum(Square(MatMul(Weights(2, 3, 8), t)));
               }, {3, 2}},
        OpCase{"transpose", [](const Tensor& t) {
                 return Sum(Square(Transpose(t)));
               }, {2, 3}},
        OpCase{"mean", [](const Tensor& t) { return Mean(Square(t)); },
               {5}},
        OpCase{"sumdim0", [](const Tensor& t) {
                 return Sum(Square(SumDim(t, 0)));
               }, {3, 2}},
        OpCase{"sumdim1", [](const Tensor& t) {
                 return Sum(Square(SumDim(t, 1)));
               }, {3, 2}},
        OpCase{"norm", [](const Tensor& t) { return Norm(t); },
               {4}, 0.3f, 1.0f},
        OpCase{"dot", [](const Tensor& t) {
                 return Dot(t, AddScalar(t, 0.5f));
               }, {4}},
        OpCase{"softmax", [](const Tensor& t) {
                 return Sum(Square(Softmax(t)));
               }, {5}},
        OpCase{"softmax2d", [](const Tensor& t) {
                 return Sum(Square(Softmax(t)));
               }, {2, 3}},
        OpCase{"logsoftmax", [](const Tensor& t) {
                 return Sum(Square(LogSoftmax(t)));
               }, {5}},
        OpCase{"reshape", [](const Tensor& t) {
                 return Sum(Square(Reshape(t, {3, 2})));
               }, {2, 3}},
        OpCase{"rows", [](const Tensor& t) {
                 return Sum(Square(Rows(t, 1, 2)));
               }, {4, 2}},
        OpCase{"index_rows", [](const Tensor& t) {
                 return Sum(Square(IndexRows(t, {0, 2, 0})));
               }, {3, 2}},
        OpCase{"gather", [](const Tensor& t) {
                 return Square(Gather1d(t, 2));
               }, {4}},
        OpCase{"concat0", [](const Tensor& t) {
                 return Sum(Square(Concat({t, MulScalar(t, 2.0f)}, 0)));
               }, {2, 3}},
        OpCase{"concat1", [](const Tensor& t) {
                 return Sum(Square(Concat({t, MulScalar(t, 2.0f)}, 1)));
               }, {2, 3}},
        OpCase{"stack", [](const Tensor& t) {
                 std::vector<Tensor> rows = {Reshape(Rows(Reshape(t, {2, 3}), 0, 1), {3}),
                                             Reshape(Rows(Reshape(t, {2, 3}), 1, 1), {3})};
                 return Sum(Square(Stack(rows)));
               }, {6}},
        OpCase{"scale_rows_mat", [](const Tensor& t) {
                 return Sum(Square(ScaleRows(
                     t, Tensor::FromVector({3}, {0.5f, -1.0f, 2.0f}))));
               }, {3, 2}},
        OpCase{"scale_rows_vec", [](const Tensor& t) {
                 return Sum(Square(
                     ScaleRows(Weights(4, 2, 11).Detach(), t)));
               }, {4}},
        OpCase{"add_row_vector", [](const Tensor& t) {
                 return Sum(Square(AddRowVector(Weights(3, 4, 9).Detach(),
                                                t)));
               }, {4}},
        OpCase{"mse", [](const Tensor& t) {
                 return MseLoss(t, Tensor::Zeros({4}));
               }, {4}}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(AutogradTest, Conv2dInputGrad) {
  Tensor x = RandomTensor({1, 2, 4, 4}, 3);
  Tensor w = Weights(2, 2 * 3 * 3, 5);  // values source
  Tensor weight = Tensor::FromVector({2, 2, 3, 3}, w.data());
  float err = MaxGradError(x, [&](const Tensor& t) {
    return Sum(Square(Conv2d(t, weight, Tensor(), 1, 1)));
  });
  EXPECT_LT(err, 5e-2f);
}

TEST(AutogradTest, Conv2dWeightGrad) {
  Tensor input = RandomTensor({1, 1, 4, 4}, 6).Detach();
  Tensor weight = RandomTensor({2, 1, 2, 2}, 7);
  float err = MaxGradError(weight, [&](const Tensor& t) {
    return Sum(Square(Conv2d(input, t, Tensor(), 2, 0)));
  });
  EXPECT_LT(err, 5e-2f);
}

TEST(AutogradTest, Conv2dBiasGrad) {
  Tensor input = RandomTensor({1, 1, 3, 3}, 8).Detach();
  Tensor weight = RandomTensor({2, 1, 2, 2}, 9).Detach();
  Tensor bias = RandomTensor({2}, 10);
  float err = MaxGradError(bias, [&](const Tensor& t) {
    return Sum(Square(Conv2d(input, weight, t, 1, 0)));
  });
  EXPECT_LT(err, 5e-2f);
}

TEST(AutogradTest, SecondBackwardAccumulates) {
  Tensor x = Tensor::FromVector({1}, {2}, /*requires_grad=*/true);
  Tensor y1 = Sum(Square(x));
  y1.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  Tensor y2 = Sum(Square(x));
  y2.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 8.0f);  // accumulated
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

}  // namespace
}  // namespace garl::nn
