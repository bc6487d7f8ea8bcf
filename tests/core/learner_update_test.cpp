// compute_learner_update's trust-region early stop. The epoch whose sample
// KL overshoots is discarded, so the loss returns its stats from the
// forward pass and runs no backward. These tests pin that the skip changes
// nothing else: the same delta, stats and epoch count, bit for bit, as the
// loop that ran every backward, and no GEMM but the forward's in the
// stopping epoch.
#include "core/learner_update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "envs/env.hpp"
#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "rl/gae.hpp"
#include "rl/impact.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_actor.hpp"

namespace stellaris::core {
namespace {

struct Case {
  Algorithm algorithm;
  const char* env;
};

std::string case_name(const Case& c) {
  const char* algorithm = c.algorithm == Algorithm::kPpo ? "PPO" : "IMPACT";
  return std::string(algorithm) + " on " + c.env;
}

TrainConfig config(Algorithm algorithm, std::size_t iters, double kl_target) {
  TrainConfig cfg;
  cfg.algorithm = algorithm;
  cfg.ppo.sgd_iters = cfg.impact.sgd_iters = iters;
  cfg.ppo.kl_target = cfg.impact.kl_target = kl_target;
  return cfg;
}

nn::ActorCritic model_for(const std::string& env, std::uint64_t seed) {
  const auto spec = envs::env_spec(env);
  const auto net = spec.obs.image ? nn::NetworkSpec::atari()
                                  : nn::NetworkSpec::mujoco(8);
  return nn::ActorCritic(spec.obs, spec.action_kind, spec.act_dim, net, seed);
}

rl::SampleBatch rollout(const std::string& env, nn::ActorCritic& behaviour,
                        std::uint64_t seed) {
  rl::VecActor actor(std::make_unique<envs::VecEnv>(env, 2, seed), seed);
  rl::VecActorScratch scratch;
  return actor.sample(behaviour, scratch, 12, 0);
}

double cap_of(const TrainConfig& cfg) {
  return cfg.enable_truncation ? cfg.ratio_rho
                               : std::numeric_limits<double>::infinity();
}

// compute_learner_update as it was before the stopping epoch skipped its
// backward: every epoch runs the whole loss, gradients included, and the
// KL check comes after.
LearnerUpdate every_backward_update(const TrainConfig& cfg,
                                    nn::ActorCritic& model,
                                    nn::ActorCritic& target,
                                    const std::vector<float>& pulled,
                                    rl::SampleBatch batch) {
  const bool is_ppo = cfg.algorithm == Algorithm::kPpo;
  const double kl_stop =
      2.5 * (is_ppo ? cfg.ppo.kl_target : cfg.impact.kl_target);
  const std::size_t iters = is_ppo ? cfg.ppo.sgd_iters : cfg.impact.sgd_iters;
  const double max_norm =
      is_ppo ? cfg.ppo.max_grad_norm : cfg.impact.max_grad_norm;
  const auto damp = static_cast<float>(is_ppo ? cfg.ppo.log_std_grad_scale
                                              : cfg.impact.log_std_grad_scale);
  if (is_ppo) {
    rl::compute_gae(batch, cfg.ppo.gamma, cfg.ppo.gae_lambda);
    rl::normalize_advantages(batch);
  }
  const Tensor logp_target =
      is_ppo ? Tensor() : rl::impact_target_log_probs(target, batch);

  LearnerUpdate out;
  std::vector<float> local = pulled;
  nn::AdamOptimizer opt(is_ppo ? cfg.ppo.lr : cfg.impact.lr);
  const auto [ls_off, ls_len] = model.log_std_span();
  for (std::size_t e = 0; e < iters; ++e) {
    model.set_flat_params(local);
    model.zero_grad();
    out.stats = is_ppo ? rl::ppo_compute_gradients(model, batch, cfg.ppo,
                                                   cap_of(cfg))
                       : rl::impact_compute_gradients(
                             model, logp_target, batch, cfg.impact,
                             cap_of(cfg));
    ++out.epochs_run;
    if (e > 0 && out.stats.kl > kl_stop) break;
    std::vector<float> grad = model.flat_grads();
    nn::clip_grad_norm(grad, max_norm);
    const std::vector<float> before = local;
    opt.step(local, grad);
    for (std::size_t i = ls_off; i < ls_off + ls_len; ++i)
      local[i] = std::clamp(before[i] + damp * (local[i] - before[i]),
                            -2.5f, 0.0f);
  }
  out.delta.resize(local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    out.delta[i] = pulled[i] - local[i];
  return out;
}

void expect_same_update(const LearnerUpdate& got, const LearnerUpdate& want) {
  EXPECT_EQ(got.epochs_run, want.epochs_run);
  ASSERT_EQ(got.delta.size(), want.delta.size());
  EXPECT_EQ(std::memcmp(got.delta.data(), want.delta.data(),
                        got.delta.size() * sizeof(float)),
            0);
  EXPECT_EQ(got.stats.policy_loss, want.stats.policy_loss);
  EXPECT_EQ(got.stats.value_loss, want.stats.value_loss);
  EXPECT_EQ(got.stats.entropy, want.stats.entropy);
  EXPECT_EQ(got.stats.kl, want.stats.kl);
  EXPECT_EQ(got.stats.mean_ratio, want.stats.mean_ratio);
  EXPECT_EQ(got.stats.max_ratio, want.stats.max_ratio);
  EXPECT_EQ(got.stats.min_ratio, want.stats.min_ratio);
  EXPECT_EQ(got.stats.clip_fraction, want.stats.clip_fraction);
}

std::uint64_t gemm_calls() {
  return obs::metrics().counter("kernel.gemm_calls").value();
}

// GEMM calls of one forward of both heads, and of one whole loss (forward
// and backward), on `batch`; and of the IMPACT target's log-probs.
struct GemmCosts {
  std::uint64_t forward = 0, loss = 0, target = 0;
};

GemmCosts gemm_costs(const TrainConfig& cfg, nn::ActorCritic& model,
                     nn::ActorCritic& target, rl::SampleBatch batch) {
  GemmCosts costs;
  std::uint64_t before = gemm_calls();
  (void)model.forward(batch.obs);
  costs.forward = gemm_calls() - before;
  before = gemm_calls();
  if (cfg.algorithm == Algorithm::kPpo) {
    rl::compute_gae(batch, cfg.ppo.gamma, cfg.ppo.gae_lambda);
    (void)rl::ppo_compute_gradients(model, batch, cfg.ppo, cap_of(cfg));
  } else {
    const Tensor logp_target = rl::impact_target_log_probs(target, batch);
    costs.target = gemm_calls() - before;
    before = gemm_calls();
    (void)rl::impact_compute_gradients(model, logp_target, batch, cfg.impact,
                                       cap_of(cfg));
  }
  costs.loss = gemm_calls() - before;
  return costs;
}

const Case kCases[] = {{Algorithm::kPpo, "Hopper"},
                       {Algorithm::kPpo, "SpaceInvaders"},
                       {Algorithm::kImpact, "Hopper"},
                       {Algorithm::kImpact, "SpaceInvaders"}};

// A KL target no update can stay under stops every update at epoch 1.
TEST(LearnerEarlyStop, StoppedUpdateMatchesEveryBackwardLoop) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    const TrainConfig cfg = config(c.algorithm, 3, 1e-12);
    auto model = model_for(c.env, 41);
    auto target = model_for(c.env, 42);
    const std::vector<float> pulled = model.flat_params();
    const rl::SampleBatch batch = rollout(c.env, model, 41);

    rl::SampleBatch scratch = batch;
    const LearnerUpdate got =
        compute_learner_update(cfg, model, target, pulled, scratch);
    const LearnerUpdate want =
        every_backward_update(cfg, model, target, pulled, batch);
    ASSERT_EQ(want.epochs_run, 2u);
    expect_same_update(got, want);
  }
}

TEST(LearnerEarlyStop, UnstoppedUpdateMatchesEveryBackwardLoop) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    const TrainConfig cfg = config(c.algorithm, 3, 1e9);
    auto model = model_for(c.env, 43);
    auto target = model_for(c.env, 44);
    const std::vector<float> pulled = model.flat_params();
    const rl::SampleBatch batch = rollout(c.env, model, 43);

    rl::SampleBatch scratch = batch;
    const LearnerUpdate got =
        compute_learner_update(cfg, model, target, pulled, scratch);
    const LearnerUpdate want =
        every_backward_update(cfg, model, target, pulled, batch);
    ASSERT_EQ(want.epochs_run, 3u);
    expect_same_update(got, want);
  }
}

// The stopping epoch adds the forward's GEMMs and nothing else; an update
// that never stops runs every epoch's whole loss.
TEST(LearnerEarlyStop, StoppingEpochRunsOnlyForwardGemms) {
  for (const Case& c : kCases) {
    SCOPED_TRACE(case_name(c));
    auto model = model_for(c.env, 45);
    auto target = model_for(c.env, 46);
    const std::vector<float> pulled = model.flat_params();
    const rl::SampleBatch batch = rollout(c.env, model, 45);
    const GemmCosts costs =
        gemm_costs(config(c.algorithm, 1, 1.0), model, target, batch);
    ASSERT_GT(costs.forward, 0u);
    ASSERT_GT(costs.loss, costs.forward);

    rl::SampleBatch scratch = batch;
    std::uint64_t before = gemm_calls();
    const LearnerUpdate stopped = compute_learner_update(
        config(c.algorithm, 3, 1e-12), model, target, pulled, scratch);
    ASSERT_EQ(stopped.epochs_run, 2u);
    EXPECT_EQ(gemm_calls() - before,
              costs.target + costs.loss + costs.forward);

    scratch = batch;
    before = gemm_calls();
    const LearnerUpdate full = compute_learner_update(
        config(c.algorithm, 3, 1e9), model, target, pulled, scratch);
    ASSERT_EQ(full.epochs_run, 3u);
    EXPECT_EQ(gemm_calls() - before, costs.target + 3 * costs.loss);
  }
}

}  // namespace
}  // namespace stellaris::core
