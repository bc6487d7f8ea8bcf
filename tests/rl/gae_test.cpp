#include "rl/gae.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "test_tensors.hpp"

namespace stellaris::rl {
namespace {

SampleBatch simple_batch(std::vector<float> rewards, std::vector<float> values,
                         std::vector<float> dones, float bootstrap) {
  SampleBatch b;
  const std::size_t n = rewards.size();
  b.rewards = Tensor({n}, std::move(rewards));
  b.values = Tensor({n}, std::move(values));
  b.dones = Tensor({n}, std::move(dones));
  b.obs = Tensor({n, 1});
  b.behaviour_log_probs = Tensor({n});
  b.bootstrap_value = bootstrap;
  return b;
}

TEST(Gae, SingleStepTdError) {
  // λ=0 reduces GAE to one-step TD error.
  auto b = simple_batch({1.0f}, {0.5f}, {0.0f}, 2.0f);
  compute_gae(b, 0.9, 0.0);
  EXPECT_NEAR(b.advantages[0], 1.0 + 0.9 * 2.0 - 0.5, 1e-6);
  EXPECT_NEAR(b.value_targets[0], b.advantages[0] + 0.5, 1e-6);
}

TEST(Gae, LambdaOneIsDiscountedReturnMinusValue) {
  // λ=1: A_t = Σ γ^k r_{t+k} + γ^T V_boot − V_t (telescoping identity).
  auto b = simple_batch({1, 2, 3}, {0.3f, 0.6f, 0.9f}, {0, 0, 0}, 4.0f);
  const double g = 0.95;
  compute_gae(b, g, 1.0);
  const double ret0 = 1 + g * 2 + g * g * 3 + g * g * g * 4;
  EXPECT_NEAR(b.advantages[0], ret0 - 0.3, 1e-5);
  const double ret2 = 3 + g * 4;
  EXPECT_NEAR(b.advantages[2], ret2 - 0.9, 1e-5);
}

TEST(Gae, DoneBlocksBootstrapAndCredit) {
  auto b = simple_batch({1, 5}, {0, 0}, {1, 0}, 100.0f);
  compute_gae(b, 0.99, 0.95);
  // Step 0 terminates: advantage is exactly its reward; the later reward and
  // the bootstrap must not leak backward.
  EXPECT_NEAR(b.advantages[0], 1.0, 1e-6);
}

TEST(Gae, TerminalLastStepIgnoresBootstrap) {
  auto b = simple_batch({2}, {0}, {1}, 999.0f);
  compute_gae(b, 0.99, 0.95);
  EXPECT_NEAR(b.advantages[0], 2.0, 1e-6);
}

TEST(Gae, SegmentsAreIndependent) {
  // Two segments with identical content must produce identical advantages,
  // and must differ from treating the whole thing as one stream.
  auto joint = simple_batch({1, 2, 1, 2}, {0.5f, 0.5f, 0.5f, 0.5f},
                            {0, 0, 0, 0}, 3.0f);
  joint.segments.push_back({0, 3.0f});
  joint.segments.push_back({2, 3.0f});
  compute_gae(joint, 0.9, 0.9);

  auto solo = simple_batch({1, 2}, {0.5f, 0.5f}, {0, 0}, 3.0f);
  compute_gae(solo, 0.9, 0.9);

  EXPECT_NEAR(joint.advantages[0], solo.advantages[0], 1e-6);
  EXPECT_NEAR(joint.advantages[2], solo.advantages[0], 1e-6);
  EXPECT_NEAR(joint.advantages[3], solo.advantages[1], 1e-6);
}

TEST(Gae, SeamDoesNotLeakAcrossSegments) {
  // Big reward at the start of segment 2 must not raise segment 1's
  // advantages.
  auto with_seam = simple_batch({0, 0, 100, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
                                0.0f);
  with_seam.segments.push_back({0, 0.0f});
  with_seam.segments.push_back({2, 0.0f});
  compute_gae(with_seam, 0.99, 0.95);
  EXPECT_NEAR(with_seam.advantages[1], 0.0, 1e-6);

  auto no_seam = simple_batch({0, 0, 100, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
                              0.0f);
  compute_gae(no_seam, 0.99, 0.95);
  EXPECT_GT(no_seam.advantages[1], 50.0);  // leaks without segments
}

TEST(Gae, ValueTargetIsAdvantagePlusValue) {
  Rng rng(1);
  auto b = simple_batch({1, -2, 0.5f, 3}, {0.1f, 0.2f, 0.3f, 0.4f},
                        {0, 1, 0, 0}, 1.0f);
  compute_gae(b, 0.99, 0.95);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(b.value_targets[i], b.advantages[i] + b.values[i], 1e-6);
}

TEST(Gae, EmptyBatchThrows) {
  SampleBatch b;
  EXPECT_THROW(compute_gae(b, 0.99, 0.95), Error);
}

TEST(NormalizeAdvantages, ZeroMeanUnitVariance) {
  auto b = simple_batch({1, 2, 3, 4, 5}, {0, 0, 0, 0, 0}, {0, 0, 0, 0, 0},
                        0.0f);
  compute_gae(b, 0.99, 0.95);
  normalize_advantages(b);
  double mean = 0, var = 0;
  for (std::size_t i = 0; i < 5; ++i) mean += b.advantages[i];
  mean /= 5;
  for (std::size_t i = 0; i < 5; ++i) {
    const double d = b.advantages[i] - mean;
    var += d * d;
  }
  var /= 4;
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(std::sqrt(var), 1.0, 1e-4);
}

TEST(NormalizeAdvantages, SingleSampleIsNoop) {
  auto b = simple_batch({5}, {0}, {0}, 0.0f);
  compute_gae(b, 0.99, 0.95);
  const float before = b.advantages[0];
  normalize_advantages(b);
  EXPECT_FLOAT_EQ(b.advantages[0], before);
}

// Property sweep over (gamma, lambda): advantages are finite and the
// telescoping identity target = A + V always holds.
class GaeSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GaeSweep, InvariantsHold) {
  const auto [gamma, lambda] = GetParam();
  Rng rng(7);
  const std::size_t n = 64;
  SampleBatch b;
  b.obs = Tensor({n, 1});
  b.behaviour_log_probs = Tensor({n});
  b.rewards = Tensor::randn({n}, rng, 2.0f);
  b.values = Tensor::randn({n}, rng);
  b.dones = Tensor({n});
  for (std::size_t i = 0; i < n; ++i)
    b.dones[i] = rng.bernoulli(0.1) ? 1.0f : 0.0f;
  b.bootstrap_value = 0.5f;
  compute_gae(b, gamma, lambda);
  EXPECT_TRUE(all_finite(b.advantages));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(b.value_targets[i], b.advantages[i] + b.values[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    GammaLambda, GaeSweep,
    ::testing::Combine(::testing::Values(0.9, 0.99, 1.0),
                       ::testing::Values(0.0, 0.5, 0.95, 1.0)));

}  // namespace
}  // namespace stellaris::rl
