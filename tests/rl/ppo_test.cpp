#include "rl/ppo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/distributions.hpp"
#include "rl/gae.hpp"
#include "util/rng.hpp"

namespace stellaris::rl {
namespace {

nn::ActorCritic make_model(std::uint64_t seed = 1) {
  return nn::ActorCritic(nn::ObsSpec::vector(4), nn::ActionKind::kContinuous,
                         2, nn::NetworkSpec::mujoco(8), seed);
}

SampleBatch make_batch(nn::ActorCritic& policy, Rng& rng, std::size_t n,
                       float advantage_sign) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kContinuous;
  b.obs = Tensor::randn({n, 4}, rng);
  Tensor mean = policy.policy_forward(b.obs);
  nn::gaussian_sample_into(b.actions_cont, mean, *policy.log_std(), rng);
  b.behaviour_log_probs =
      nn::gaussian_log_prob(mean, *policy.log_std(), b.actions_cont);
  b.rewards = Tensor({n});
  b.dones = Tensor({n});
  b.values = Tensor({n});
  b.bootstrap_value = 0.0f;
  b.advantages = Tensor::full({n}, advantage_sign);
  b.value_targets = Tensor({n});
  return b;
}

TEST(Ppo, RequiresAdvantages) {
  auto model = make_model();
  SampleBatch b;
  b.obs = Tensor({1, 4});
  EXPECT_THROW(ppo_compute_gradients(model, b, PpoConfig{}), Error);
}

TEST(Ppo, OnPolicyRatioIsOne) {
  auto model = make_model(3);
  Rng rng(3);
  auto batch = make_batch(model, rng, 32, 1.0f);
  model.zero_grad();
  PpoConfig cfg;
  auto stats = ppo_compute_gradients(model, batch, cfg);
  EXPECT_NEAR(stats.mean_ratio, 1.0, 1e-4);
  EXPECT_NEAR(stats.kl, 0.0, 1e-5);
  EXPECT_EQ(stats.clip_fraction, 0.0);
}

TEST(Ppo, PositiveAdvantageIncreasesActionLogProb) {
  auto model = make_model(5);
  Rng rng(5);
  auto batch = make_batch(model, rng, 64, 1.0f);
  model.zero_grad();
  PpoConfig cfg;
  cfg.kl_coeff = 0.0;
  (void)ppo_compute_gradients(model, batch, cfg);
  // Apply one small gradient-descent step by hand and check logp went up.
  auto params = model.flat_params();
  auto grads = model.flat_grads();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] -= 0.001f * grads[i];
  const Tensor lp_before = nn::gaussian_log_prob(
      model.policy_forward(batch.obs), *model.log_std(), batch.actions_cont);
  model.set_flat_params(params);
  const Tensor lp_after = nn::gaussian_log_prob(
      model.policy_forward(batch.obs), *model.log_std(), batch.actions_cont);
  EXPECT_GT(lp_after.sum(), lp_before.sum());
}

TEST(Ppo, NegativeAdvantageDecreasesActionLogProb) {
  auto model = make_model(6);
  Rng rng(6);
  auto batch = make_batch(model, rng, 64, -1.0f);
  model.zero_grad();
  PpoConfig cfg;
  cfg.kl_coeff = 0.0;
  (void)ppo_compute_gradients(model, batch, cfg);
  auto params = model.flat_params();
  auto grads = model.flat_grads();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] -= 0.001f * grads[i];
  const Tensor lp_before = nn::gaussian_log_prob(
      model.policy_forward(batch.obs), *model.log_std(), batch.actions_cont);
  model.set_flat_params(params);
  const Tensor lp_after = nn::gaussian_log_prob(
      model.policy_forward(batch.obs), *model.log_std(), batch.actions_cont);
  EXPECT_LT(lp_after.sum(), lp_before.sum());
}

TEST(Ppo, ValueGradientReducesValueLoss) {
  auto model = make_model(7);
  Rng rng(7);
  auto batch = make_batch(model, rng, 32, 0.0f);
  batch.value_targets = Tensor::full({32}, 10.0f);
  model.zero_grad();
  PpoConfig cfg;
  auto s0 = ppo_compute_gradients(model, batch, cfg);
  auto params = model.flat_params();
  auto grads = model.flat_grads();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] -= 0.01f * grads[i];
  model.set_flat_params(params);
  model.zero_grad();
  auto s1 = ppo_compute_gradients(model, batch, cfg);
  EXPECT_LT(s1.value_loss, s0.value_loss);
}

TEST(Ppo, TruncationCapCountsAndKeepsGradients) {
  auto sampler = make_model(8);
  auto learner = make_model(9);  // different weights: ratios spread around 1
  Rng rng(8);
  auto batch = make_batch(sampler, rng, 128, 1.0f);
  learner.zero_grad();
  PpoConfig cfg;
  // With a cap below the min ratio, every sample is truncated; gradients
  // still flow with capped weight (V-trace-style truncated IS).
  auto stats = ppo_compute_gradients(learner, batch, cfg, 1e-6);
  EXPECT_EQ(stats.clip_fraction, 1.0);
  double norm = 0.0;
  for (float g : learner.flat_grads()) norm += std::abs(g);
  EXPECT_GT(norm, 0.0);
}

TEST(Ppo, OffPolicyRatiosSpread) {
  auto sampler = make_model(10);
  auto learner = make_model(11);
  Rng rng(10);
  auto batch = make_batch(sampler, rng, 128, 1.0f);
  learner.zero_grad();
  auto stats = ppo_compute_gradients(learner, batch, PpoConfig{});
  EXPECT_GT(stats.max_ratio, stats.min_ratio);
  EXPECT_GT(stats.kl, 0.0);
}

TEST(Ppo, StatsPolicyLossIsNegatedSurrogate) {
  auto model = make_model(12);
  Rng rng(12);
  auto batch = make_batch(model, rng, 16, 1.0f);
  model.zero_grad();
  auto stats = ppo_compute_gradients(model, batch, PpoConfig{});
  // On-policy, unit advantages: surrogate = mean(1·1) = 1 → loss = −1.
  EXPECT_NEAR(stats.policy_loss, -1.0, 1e-4);
}

// Property: the gradient is finite for any ratio cap.
class PpoCapSweep : public ::testing::TestWithParam<double> {};

TEST_P(PpoCapSweep, GradientsFinite) {
  auto sampler = make_model(13);
  auto learner = make_model(14);
  Rng rng(13);
  auto batch = make_batch(sampler, rng, 64, 1.0f);
  learner.zero_grad();
  (void)ppo_compute_gradients(learner, batch, PpoConfig{}, GetParam());
  for (float g : learner.flat_grads()) EXPECT_TRUE(std::isfinite(g));
}

INSTANTIATE_TEST_SUITE_P(Caps, PpoCapSweep,
                         ::testing::Values(0.6, 0.8, 1.0, 1.2,
                                           std::numeric_limits<double>::infinity()));

}  // namespace
}  // namespace stellaris::rl
