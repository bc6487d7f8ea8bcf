#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"

namespace stellaris::nn {
namespace {

TEST(Sgd, PlainStep) {
  SgdOptimizer opt(0.1);
  std::vector<float> p = {1.0f, 2.0f};
  std::vector<float> g = {1.0f, -1.0f};
  opt.step(p, g);
  EXPECT_FLOAT_EQ(p[0], 0.9f);
  EXPECT_FLOAT_EQ(p[1], 2.1f);
}

TEST(Sgd, MomentumAccumulates) {
  SgdOptimizer opt(0.1, 0.9);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  opt.step(p, g);  // v=1, p=-0.1
  EXPECT_FLOAT_EQ(p[0], -0.1f);
  opt.step(p, g);  // v=1.9, p=-0.29
  EXPECT_FLOAT_EQ(p[0], -0.29f);
}

TEST(Adam, FirstStepIsLrSized) {
  // With bias correction, the first Adam step is ≈ lr·sign(g).
  AdamOptimizer opt(0.01);
  std::vector<float> p = {0.0f, 0.0f};
  std::vector<float> g = {5.0f, -0.001f};
  opt.step(p, g);
  EXPECT_NEAR(p[0], -0.01f, 1e-4f);
  EXPECT_NEAR(p[1], 0.01f, 1e-3f);
}

TEST(Adam, MatchesReferenceImplementation) {
  // Two steps of textbook Adam computed by hand.
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  AdamOptimizer opt(lr, b1, b2, eps);
  std::vector<float> p = {1.0f};
  double m = 0, v = 0, ref = 1.0;
  for (int t = 1; t <= 2; ++t) {
    const double g = 2.0 * ref;  // gradient of x² at ref
    std::vector<float> grad = {static_cast<float>(2.0 * p[0])};
    opt.step(p, grad);
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const double mhat = m / (1 - std::pow(b1, t));
    const double vhat = v / (1 - std::pow(b2, t));
    ref -= lr * mhat / (std::sqrt(vhat) + eps);
    EXPECT_NEAR(p[0], ref, 1e-4);
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  AdamOptimizer opt(0.1);
  std::vector<float> p = {5.0f};
  for (int i = 0; i < 500; ++i) {
    std::vector<float> g = {2.0f * p[0]};
    opt.step(p, g);
  }
  EXPECT_NEAR(p[0], 0.0f, 0.05f);
}

TEST(RmsProp, StepShrinksWithAccumulatedSquare) {
  RmsPropOptimizer opt(0.1, 0.9);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  opt.step(p, g);
  const float first = -p[0];
  const float before = p[0];
  opt.step(p, g);
  const float second = before - p[0];
  EXPECT_GT(first, 0.0f);
  EXPECT_LT(second, first);  // accumulator grows, step shrinks
}

TEST(Optimizers, StepWithLrOverridesConfiguredRate) {
  SgdOptimizer opt(100.0);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f};
  opt.step_with_lr(p, g, 0.5);
  EXPECT_FLOAT_EQ(p[0], -0.5f);
}

TEST(Optimizers, SizeMismatchThrows) {
  AdamOptimizer opt(0.1);
  std::vector<float> p = {0.0f};
  std::vector<float> g = {1.0f, 2.0f};
  EXPECT_THROW(opt.step(p, g), Error);
}

TEST(Optimizers, FactoryCreatesAllKinds) {
  EXPECT_EQ(make_optimizer("sgd", 0.1)->name(), "sgd");
  EXPECT_EQ(make_optimizer("adam", 0.1)->name(), "adam");
  EXPECT_EQ(make_optimizer("rmsprop", 0.1)->name(), "rmsprop");
  EXPECT_THROW(make_optimizer("adagrad", 0.1), ConfigError);
}

TEST(ClipGradNorm, ScalesOnlyWhenAboveLimit) {
  std::vector<float> g = {3.0f, 4.0f};  // norm 5
  const double pre = clip_grad_norm(g, 10.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_FLOAT_EQ(g[0], 3.0f);  // untouched

  const double pre2 = clip_grad_norm(g, 1.0);
  EXPECT_DOUBLE_EQ(pre2, 5.0);
  EXPECT_NEAR(std::sqrt(g[0] * g[0] + g[1] * g[1]), 1.0f, 1e-5f);
}

TEST(ClipGradNorm, ZeroGradientIsSafe) {
  std::vector<float> g = {0.0f, 0.0f};
  EXPECT_DOUBLE_EQ(clip_grad_norm(g, 1.0), 0.0);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

// Property: every optimizer reduces a convex quadratic from any start.
class OptimizerConvergence : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerConvergence, ReducesQuadraticLoss) {
  auto opt = make_optimizer(GetParam(), 0.05);
  std::vector<float> p = {4.0f, -3.0f};
  auto loss = [&] { return p[0] * p[0] + p[1] * p[1]; };
  const double initial = loss();
  for (int i = 0; i < 200; ++i) {
    std::vector<float> g = {2 * p[0], 2 * p[1]};
    opt->step(p, g);
  }
  EXPECT_LT(loss(), initial * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerConvergence,
                         ::testing::Values("sgd", "adam", "rmsprop"));

}  // namespace
}  // namespace stellaris::nn
