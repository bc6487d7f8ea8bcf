#include "rl/impact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "core/learner_update.hpp"
#include "nn/distributions.hpp"
#include "nn/optimizer.hpp"
#include "rl/vec_actor.hpp"
#include "util/rng.hpp"

namespace stellaris::rl {
namespace {

nn::ActorCritic make_model(std::uint64_t seed) {
  return nn::ActorCritic(nn::ObsSpec::vector(4), nn::ActionKind::kContinuous,
                         2, nn::NetworkSpec::mujoco(8), seed);
}

SampleBatch sample_batch(nn::ActorCritic& behaviour, Rng& rng,
                         std::size_t n) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kContinuous;
  b.obs = Tensor::randn({n, 4}, rng);
  Tensor mean = behaviour.policy_forward(b.obs);
  nn::gaussian_sample_into(b.actions_cont, mean, *behaviour.log_std(), rng);
  b.behaviour_log_probs =
      nn::gaussian_log_prob(mean, *behaviour.log_std(), b.actions_cont);
  b.rewards = Tensor::randn({n}, rng);
  b.dones = Tensor({n});
  b.values = behaviour.value_forward(b.obs);
  b.bootstrap_value = 0.0f;
  return b;
}

TEST(Impact, TargetEqualsModelGivesUnitRatio) {
  auto model = make_model(1);
  auto target = make_model(2);
  target.set_flat_params(model.flat_params());
  Rng rng(1);
  auto batch = sample_batch(model, rng, 32);
  model.zero_grad();
  auto stats = impact_compute_gradients(
      model, impact_target_log_probs(target, batch), batch, ImpactConfig{});
  EXPECT_NEAR(stats.mean_ratio, 1.0, 1e-4);
  EXPECT_NEAR(stats.kl, 0.0, 1e-5);
}

TEST(Impact, ProducesNonzeroFiniteGradients) {
  auto model = make_model(3);
  auto target = make_model(4);
  Rng rng(3);
  auto batch = sample_batch(model, rng, 64);
  model.zero_grad();
  (void)impact_compute_gradients(
      model, impact_target_log_probs(target, batch), batch, ImpactConfig{});
  double norm = 0.0;
  for (float g : model.flat_grads()) {
    EXPECT_TRUE(std::isfinite(g));
    norm += std::abs(g);
  }
  EXPECT_GT(norm, 0.0);
}

TEST(Impact, DoesNotNeedGae) {
  auto model = make_model(5);
  auto target = make_model(6);
  Rng rng(5);
  auto batch = sample_batch(model, rng, 16);
  ASSERT_FALSE(batch.has_advantages());  // V-trace supplies them internally
  model.zero_grad();
  EXPECT_NO_THROW(impact_compute_gradients(
      model, impact_target_log_probs(target, batch), batch, ImpactConfig{}));
}

TEST(Impact, ValueGradientReducesVtraceLoss) {
  auto model = make_model(7);
  auto target = make_model(8);
  target.set_flat_params(model.flat_params());
  Rng rng(7);
  auto batch = sample_batch(model, rng, 64);
  model.zero_grad();
  ImpactConfig cfg;
  const Tensor logp_target = impact_target_log_probs(target, batch);
  auto s0 = impact_compute_gradients(model, logp_target, batch, cfg);
  auto params = model.flat_params();
  auto grads = model.flat_grads();
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i] -= 0.005f * grads[i];
  model.set_flat_params(params);
  model.zero_grad();
  auto s1 = impact_compute_gradients(model, logp_target, batch, cfg);
  EXPECT_LT(s1.value_loss, s0.value_loss);
}

TEST(Impact, SegmentedBatchesDoNotLeakAcrossSeams) {
  auto model = make_model(9);
  auto target = make_model(10);
  target.set_flat_params(model.flat_params());
  Rng rng(9);
  auto a = sample_batch(model, rng, 16);
  auto b = sample_batch(model, rng, 16);
  auto joint = SampleBatch::concat({a, b});
  ASSERT_EQ(joint.segment_views().size(), 2u);
  model.zero_grad();
  auto joint_stats = impact_compute_gradients(
      model, impact_target_log_probs(target, joint), joint, ImpactConfig{});
  EXPECT_TRUE(std::isfinite(joint_stats.policy_loss));
}

TEST(Impact, RespectsTruncationCap) {
  auto model = make_model(11);
  auto target = make_model(12);  // far target → wide ratio spread
  Rng rng(11);
  auto batch = sample_batch(model, rng, 128);
  model.zero_grad();
  auto stats = impact_compute_gradients(
      model, impact_target_log_probs(target, batch), batch, ImpactConfig{},
      1e-6);
  EXPECT_EQ(stats.clip_fraction, 1.0);
}

// -- target log-probs once per update ----------------------------------------

nn::ActorCritic model_for(const std::string& env, std::uint64_t seed) {
  const auto spec = envs::env_spec(env);
  const auto net = spec.obs.image ? nn::NetworkSpec::atari()
                                  : nn::NetworkSpec::mujoco(8);
  return nn::ActorCritic(spec.obs, spec.action_kind, spec.act_dim, net, seed);
}

// A real rollout of k envs × h steps under `behaviour`.
SampleBatch rollout(const std::string& env, nn::ActorCritic& behaviour,
                    std::size_t k, std::size_t h, std::uint64_t seed) {
  VecActor actor(std::make_unique<envs::VecEnv>(env, k, seed), seed);
  VecActorScratch scratch;
  return actor.sample(behaviour, scratch, h, 0);
}

// The seed form: one whole-batch target forward, then the log-probs.
Tensor whole_batch_target_log_probs(nn::ActorCritic& target,
                                    const SampleBatch& batch) {
  const Tensor& out = target.policy_forward(batch.obs);
  return batch.action_kind == nn::ActionKind::kContinuous
             ? nn::gaussian_log_prob(out, *target.log_std(),
                                     batch.actions_cont)
             : nn::categorical_log_prob(out, batch.actions_disc);
}

void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0);
}

TEST(ImpactTargetLogProbs, ChunkedEqualsWholeBatchOnCnnDiscrete) {
  // 1200-dim frames: 13-row chunks, and 30 rows leave a 4-row tail.
  ASSERT_EQ(kValueChunkFloats / envs::env_spec("SpaceInvaders").obs.flat_dim,
            13u);
  auto behaviour = model_for("SpaceInvaders", 21);
  auto target = model_for("SpaceInvaders", 22);
  const SampleBatch batch = rollout("SpaceInvaders", behaviour, 3, 10, 21);
  ASSERT_EQ(batch.size(), 30u);
  const Tensor chunked = impact_target_log_probs(target, batch);
  expect_same_bits(chunked, whole_batch_target_log_probs(target, batch));
}

TEST(ImpactTargetLogProbs, ChunkedEqualsWholeBatchOnMlpContinuous) {
  auto behaviour = model_for("Hopper", 23);
  auto target = model_for("Hopper", 24);
  const SampleBatch batch = rollout("Hopper", behaviour, 2, 20, 23);
  const Tensor chunked = impact_target_log_probs(target, batch);
  expect_same_bits(chunked, whole_batch_target_log_probs(target, batch));
}

// compute_learner_update's IMPACT loop with the target re-forwarded every
// epoch, as before the target log-probs were hoisted out of it.
core::LearnerUpdate reference_update(const core::TrainConfig& cfg,
                                     nn::ActorCritic& model,
                                     nn::ActorCritic& target,
                                     const std::vector<float>& pulled,
                                     const SampleBatch& batch) {
  const ImpactConfig& ic = cfg.impact;
  core::LearnerUpdate out;
  std::vector<float> local = pulled;
  nn::AdamOptimizer opt(ic.lr);
  const auto [ls_off, ls_len] = model.log_std_span();
  for (std::size_t e = 0; e < ic.sgd_iters; ++e) {
    model.set_flat_params(local);
    model.zero_grad();
    out.stats = impact_compute_gradients(
        model, whole_batch_target_log_probs(target, batch), batch, ic,
        cfg.ratio_rho);
    ++out.epochs_run;
    if (e > 0 && out.stats.kl > 2.5 * ic.kl_target) break;
    std::vector<float> grad = model.flat_grads();
    nn::clip_grad_norm(grad, ic.max_grad_norm);
    const std::vector<float> before = local;
    opt.step(local, grad);
    const auto damp = static_cast<float>(ic.log_std_grad_scale);
    for (std::size_t i = ls_off; i < ls_off + ls_len; ++i)
      local[i] = std::clamp(before[i] + damp * (local[i] - before[i]),
                            -2.5f, 0.0f);
  }
  out.delta.resize(local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    out.delta[i] = pulled[i] - local[i];
  return out;
}

void expect_two_epoch_update_matches_reference(const std::string& env) {
  core::TrainConfig cfg;
  cfg.algorithm = core::Algorithm::kImpact;
  cfg.impact.sgd_iters = 2;
  cfg.impact.kl_target = 1e9;  // no early stop: both epochs run
  auto model = model_for(env, 31);
  auto target = model_for(env, 32);
  const std::vector<float> pulled = model.flat_params();
  SampleBatch batch = rollout(env, model, 3, 10, 31);

  const core::LearnerUpdate got =
      core::compute_learner_update(cfg, model, target, pulled, batch);
  const core::LearnerUpdate want =
      reference_update(cfg, model, target, pulled, batch);
  ASSERT_EQ(got.epochs_run, 2u);
  ASSERT_EQ(want.epochs_run, 2u);
  ASSERT_EQ(got.delta.size(), want.delta.size());
  EXPECT_EQ(std::memcmp(got.delta.data(), want.delta.data(),
                        got.delta.size() * sizeof(float)),
            0);
  bool moved = false;
  for (float d : got.delta) moved = moved || d != 0.0f;
  EXPECT_TRUE(moved);
  EXPECT_EQ(got.stats.policy_loss, want.stats.policy_loss);
  EXPECT_EQ(got.stats.value_loss, want.stats.value_loss);
  EXPECT_EQ(got.stats.entropy, want.stats.entropy);
  EXPECT_EQ(got.stats.kl, want.stats.kl);
  EXPECT_EQ(got.stats.mean_ratio, want.stats.mean_ratio);
  EXPECT_EQ(got.stats.max_ratio, want.stats.max_ratio);
  EXPECT_EQ(got.stats.min_ratio, want.stats.min_ratio);
  EXPECT_EQ(got.stats.clip_fraction, want.stats.clip_fraction);
}

TEST(ImpactLearnerUpdate, TwoEpochsMatchPerEpochTargetForwardOnCnn) {
  expect_two_epoch_update_matches_reference("SpaceInvaders");
}

TEST(ImpactLearnerUpdate, TwoEpochsMatchPerEpochTargetForwardOnMlp) {
  expect_two_epoch_update_matches_reference("Hopper");
}

}  // namespace
}  // namespace stellaris::rl
