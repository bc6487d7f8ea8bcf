#include "envs/vec_env.hpp"

#include <gtest/gtest.h>

#include "rl/vec_actor.hpp"

namespace stellaris::envs {
namespace {

/// Out-of-registry env: obs = (step, seed parity, ...), reward = first
/// action component, episodes last `length` steps. Implements only the allocating
/// API, so VecEnv reaches it through Env's default `_into` forwards.
class CountingEnv final : public Env {
 public:
  explicit CountingEnv(std::size_t length, std::size_t obs_dim = 2,
                       std::size_t act_dim = 1) {
    spec_.name = "Counting";
    spec_.obs = nn::ObsSpec::vector(obs_dim);
    spec_.action_kind = nn::ActionKind::kContinuous;
    spec_.act_dim = act_dim;
    spec_.max_steps = length;
  }
  const EnvSpec& spec() const override { return spec_; }
  std::vector<float> reset(std::uint64_t seed) override {
    step_ = 0;
    parity_ = static_cast<float>(seed % 2);
    return observe();
  }
  StepResult step(std::span<const float> action) override {
    ++step_;
    return {observe(), action[0], step_ >= spec_.max_steps};
  }

 private:
  std::vector<float> observe() const {
    std::vector<float> obs(spec_.obs.flat_dim, parity_);
    obs[0] = static_cast<float>(step_);
    return obs;
  }
  EnvSpec spec_;
  std::size_t step_ = 0;
  float parity_ = 0.0f;
};

TEST(VecEnv, SingleEnvForwardsMatchScalarEnv) {
  // reset_env_into / step_env_into are pass-throughs: same seed, same
  // actions => same per-env stream as a standalone Env.
  VecEnv vec("Hopper", 2, 1);
  auto solo = make_env("Hopper");
  const std::size_t obs_dim = vec.spec().obs.flat_dim;
  std::vector<float> obs_vec(obs_dim), obs_solo(obs_dim);
  vec.reset_env_into(1, 77, obs_vec);
  solo->reset_into(77, obs_solo);
  ASSERT_EQ(obs_vec, obs_solo);
  std::vector<float> action(vec.spec().act_dim, 0.3f);
  for (int step = 0; step < 25; ++step) {
    const StepOut a = vec.step_env_into(1, action, obs_vec);
    const StepOut b = solo->step_into(action, obs_solo);
    ASSERT_EQ(obs_vec, obs_solo);
    ASSERT_EQ(a.reward, b.reward);
    ASSERT_EQ(a.done, b.done);
    if (a.done) break;
  }
}

TEST(VecEnv, ZeroEnvsThrows) { EXPECT_THROW(VecEnv("Hopper", 0, 1), Error); }

TEST(VecEnv, EmptyEnvVectorThrows) {
  EXPECT_THROW(VecEnv(std::vector<std::unique_ptr<Env>>{}), Error);
}

TEST(VecEnv, MismatchedSpecsThrow) {
  const auto pair = [](std::unique_ptr<Env> a, std::unique_ptr<Env> b) {
    std::vector<std::unique_ptr<Env>> envs;
    envs.push_back(std::move(a));
    envs.push_back(std::move(b));
    return envs;
  };
  // Observation size, action kind, action size.
  EXPECT_THROW(VecEnv(pair(std::make_unique<CountingEnv>(5),
                           std::make_unique<CountingEnv>(5, 3))),
               Error);
  EXPECT_THROW(VecEnv(pair(make_env("Hopper"), make_env("Qbert"))), Error);
  EXPECT_THROW(VecEnv(pair(std::make_unique<CountingEnv>(5),
                           std::make_unique<CountingEnv>(5, 2, 2))),
               Error);
  // Episode length is not part of the contract.
  EXPECT_NO_THROW(VecEnv(pair(std::make_unique<CountingEnv>(5),
                              std::make_unique<CountingEnv>(7))));
}

TEST(VecEnv, CustomEnvStepsThroughVecActor) {
  const std::size_t h = 8;
  std::vector<std::unique_ptr<Env>> envs;
  envs.push_back(std::make_unique<CountingEnv>(5));
  envs.push_back(std::make_unique<CountingEnv>(3));
  rl::VecActor actor(std::make_unique<VecEnv>(std::move(envs)), 7);
  const EnvSpec& spec = actor.env_spec();
  nn::ActorCritic policy(spec.obs, spec.action_kind, spec.act_dim,
                         nn::NetworkSpec::mujoco(8), 1);
  rl::VecActorScratch scratch;
  const auto batch = actor.sample(policy, scratch, h, 0);
  ASSERT_EQ(batch.size(), 2 * h);
  ASSERT_EQ(batch.segments.size(), 2u);
  EXPECT_EQ(actor.total_env_steps(), 2 * h);
  // Env-major rows; each env's step counter restarts after its episode
  // length (lazy reset), and the reward is the sampled action.
  const std::size_t lengths[] = {5, 3};
  std::size_t dones = 0;
  for (std::size_t e = 0; e < 2; ++e) {
    for (std::size_t t = 0; t < h; ++t) {
      const std::size_t row = e * h + t;
      EXPECT_EQ(batch.obs.row(row)[0],
                static_cast<float>(t % lengths[e]));
      EXPECT_EQ(batch.rewards[row], batch.actions_cont.row(row)[0]);
      const bool done = (t + 1) % lengths[e] == 0;
      EXPECT_EQ(batch.dones[row] > 0.5f, done) << "env " << e << " t " << t;
      dones += done;
    }
  }
  EXPECT_EQ(batch.episode_returns.size(), dones);
}

}  // namespace
}  // namespace stellaris::envs
