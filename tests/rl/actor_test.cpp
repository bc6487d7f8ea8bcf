// The one-env actor function (the paper's actor, Step ① of §IV): a
// VecActor driving a single env slot, and evaluate_policy.
#include "rl/actor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "rl/vec_actor.hpp"

namespace stellaris::rl {
namespace {

nn::ActorCritic hopper_policy(std::uint64_t seed = 1) {
  const auto spec = envs::env_spec("Hopper");
  return nn::ActorCritic(spec.obs, spec.action_kind, spec.act_dim,
                         nn::NetworkSpec::mujoco(8), seed);
}

VecActor one_env_actor(const std::string& env, std::uint64_t seed) {
  return VecActor(std::make_unique<envs::VecEnv>(env, 1, seed), seed);
}

TEST(Actor, SampleProducesFullHorizon) {
  VecActor actor = one_env_actor("Hopper", 1);
  VecActorScratch scratch;
  auto policy = hopper_policy();
  auto batch = actor.sample(policy, scratch, 50, 7);
  EXPECT_EQ(batch.size(), 50u);
  EXPECT_EQ(batch.policy_version, 7u);
  EXPECT_EQ(batch.obs.dim(0), 50u);
  EXPECT_EQ(batch.actions_cont.dim(0), 50u);
  EXPECT_EQ(batch.action_kind, nn::ActionKind::kContinuous);
  EXPECT_TRUE(batch.segments.empty()) << "K=1 keeps the implicit segment";
  EXPECT_TRUE(batch.obs.all_finite());
  EXPECT_TRUE(batch.behaviour_log_probs.all_finite());
}

TEST(Actor, DiscreteEnvFillsDiscreteActions) {
  const auto spec = envs::env_spec("SpaceInvaders");
  nn::ActorCritic policy(spec.obs, spec.action_kind, spec.act_dim,
                         nn::NetworkSpec::atari(), 1);
  VecActor actor = one_env_actor("SpaceInvaders", 2);
  VecActorScratch scratch;
  auto batch = actor.sample(policy, scratch, 20, 0);
  EXPECT_EQ(batch.actions_disc.size(), 20u);
  EXPECT_TRUE(batch.actions_cont.empty());
  for (auto a : batch.actions_disc) EXPECT_LT(a, spec.act_dim);
}

TEST(Actor, EpisodesPersistAcrossSampleCalls) {
  VecActor actor = one_env_actor("Hopper", 3);
  VecActorScratch scratch;
  auto policy = hopper_policy();
  // Hopper episodes run up to 200 steps; with horizon 60 the first episode
  // should complete somewhere inside the first few calls and be recorded.
  std::size_t episodes = 0;
  for (int call = 0; call < 6; ++call) {
    auto batch = actor.sample(policy, scratch, 60, 0);
    episodes += batch.episode_returns.size();
  }
  EXPECT_GE(episodes, 1u);
}

TEST(Actor, DonesMatchEpisodeReturnsCount) {
  VecActor actor = one_env_actor("Qbert", 4);
  VecActorScratch scratch;
  const auto spec = envs::env_spec("Qbert");
  nn::ActorCritic policy(spec.obs, spec.action_kind, spec.act_dim,
                         nn::NetworkSpec::atari(), 2);
  auto batch = actor.sample(policy, scratch, 200, 0);
  std::size_t dones = 0;
  for (std::size_t t = 0; t < batch.size(); ++t)
    if (batch.dones[t] > 0.5f) ++dones;
  EXPECT_EQ(dones, batch.episode_returns.size());
}

TEST(Actor, BootstrapZeroWhenEndingOnDone) {
  // With horizon far beyond max_steps, sampling almost surely ends
  // mid-episode; just verify the invariant that bootstrap is 0 iff the last
  // step is done.
  VecActor actor = one_env_actor("Hopper", 5);
  VecActorScratch scratch;
  auto policy = hopper_policy();
  auto batch = actor.sample(policy, scratch, 64, 0);
  if (batch.dones[63] > 0.5f) {
    EXPECT_FLOAT_EQ(batch.bootstrap_value, 0.0f);
  }
}

TEST(Actor, SameSeedSameTrajectory) {
  auto policy = hopper_policy(9);
  VecActor a = one_env_actor("Hopper", 42);
  VecActor b = one_env_actor("Hopper", 42);
  VecActorScratch sa, sb;
  auto ba = a.sample(policy, sa, 30, 0);
  auto bb = b.sample(policy, sb, 30, 0);
  EXPECT_EQ(ba.obs.vec(), bb.obs.vec());
  EXPECT_EQ(ba.rewards.vec(), bb.rewards.vec());
}

TEST(Actor, DifferentSeedsDiverge) {
  auto policy = hopper_policy(9);
  VecActor a = one_env_actor("Hopper", 1);
  VecActor b = one_env_actor("Hopper", 2);
  VecActorScratch sa, sb;
  EXPECT_NE(a.sample(policy, sa, 30, 0).rewards.vec(),
            b.sample(policy, sb, 30, 0).rewards.vec());
}

TEST(Actor, ZeroHorizonThrows) {
  VecActor actor = one_env_actor("Hopper", 7);
  VecActorScratch scratch;
  auto policy = hopper_policy();
  EXPECT_THROW(actor.sample(policy, scratch, 0, 0), Error);
}

TEST(EvaluatePolicy, AveragesEpisodes) {
  auto env = envs::make_env("Hopper");
  auto policy = hopper_policy(11);
  const double r = evaluate_policy(*env, policy, 3, 5);
  EXPECT_TRUE(std::isfinite(r));
  // Deterministic across identical calls.
  EXPECT_DOUBLE_EQ(r, evaluate_policy(*env, policy, 3, 5));
}

TEST(EvaluatePolicy, ZeroEpisodesThrows) {
  auto env = envs::make_env("Hopper");
  auto policy = hopper_policy();
  EXPECT_THROW(evaluate_policy(*env, policy, 0, 5), Error);
}

TEST(ActorAllocs, EvaluatePolicyFlatInEpisodeCount) {
  auto env = envs::make_env("Hopper");
  auto policy = hopper_policy();
  evaluate_policy(*env, policy, 1, 5);  // warm
  const std::uint64_t b0 = tensor_buffer_allocs();
  evaluate_policy(*env, policy, 1, 5);
  const std::uint64_t one = tensor_buffer_allocs() - b0;
  const std::uint64_t b1 = tensor_buffer_allocs();
  evaluate_policy(*env, policy, 4, 5);
  const std::uint64_t four = tensor_buffer_allocs() - b1;
  EXPECT_EQ(one, four)
      << "evaluate_policy allocations must not scale with episodes/steps";
}

}  // namespace
}  // namespace stellaris::rl
