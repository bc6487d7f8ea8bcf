// VecActor regression suite (DESIGN.md §17).
//
// The load-bearing property is the K=1 contract: a VecActor driving one
// env must emit a SampleBatch BYTE-identical to the single-env reference
// loop below (one single-row forward per step) for the same seeds — the
// trajectories every committed baseline was recorded with. The
// serialized-bytes comparison pins every field at once (obs, rewards,
// log-probs, segments, episode returns).
#include "rl/vec_actor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "nn/distributions.hpp"
#include "sim/driver.hpp"

namespace stellaris::rl {
namespace {

nn::ActorCritic policy_for(const std::string& env, std::uint64_t seed = 1) {
  const auto spec = envs::env_spec(env);
  const auto net = spec.obs.image ? nn::NetworkSpec::atari()
                                  : nn::NetworkSpec::mujoco(8);
  return nn::ActorCritic(spec.obs, spec.action_kind, spec.act_dim, net, seed);
}

VecActor make_vec(const std::string& env, std::size_t k, std::uint64_t seed) {
  return VecActor(std::make_unique<envs::VecEnv>(env, k, seed), seed);
}

// -- single-env reference -----------------------------------------------------
// One env, one single-row policy forward per step, every draw (reset seeds,
// action noise) from the caller's stream. Episodes persist across sample()
// calls with a lazy reset; a truncated final transition bootstraps from the
// value of the current observation.

class ReferenceActor {
 public:
  explicit ReferenceActor(std::unique_ptr<envs::Env> env)
      : env_(std::move(env)) {}

  SampleBatch sample(nn::ActorCritic& policy, std::size_t horizon,
                     std::uint64_t policy_version, Rng& rng) {
    const auto& spec = env_->spec();
    const std::size_t obs_dim = spec.obs.flat_dim;
    const bool continuous = spec.action_kind == nn::ActionKind::kContinuous;

    SampleBatch batch;
    batch.action_kind = spec.action_kind;
    batch.policy_version = policy_version;
    batch.obs = Tensor({horizon, obs_dim});
    if (continuous) batch.actions_cont = Tensor({horizon, spec.act_dim});
    batch.rewards = Tensor({horizon});
    batch.dones = Tensor({horizon});
    batch.behaviour_log_probs = Tensor({horizon});
    batch.values = Tensor({horizon});

    for (std::size_t t = 0; t < horizon; ++t) {
      ensure_episode(rng);
      obs_row_.ensure_shape({1, obs_dim});
      std::copy(current_obs_.begin(), current_obs_.end(),
                obs_row_.row(0).begin());
      const Tensor& pol_out = policy.policy_forward(obs_row_);
      const Tensor& value = policy.value_forward(obs_row_);

      std::copy(current_obs_.begin(), current_obs_.end(),
                batch.obs.row(t).begin());
      batch.values[t] = value[0];

      envs::StepOut result;
      if (continuous) {
        nn::gaussian_sample_into(action_scratch_, pol_out, *policy.log_std(),
                                 rng);
        nn::gaussian_log_prob_into(logp_scratch_, pol_out, *policy.log_std(),
                                   action_scratch_);
        batch.behaviour_log_probs[t] = logp_scratch_[0];
        std::copy(action_scratch_.vec().begin(), action_scratch_.vec().end(),
                  batch.actions_cont.row(t).begin());
        result = env_->step_into(action_scratch_.row(0), current_obs_);
      } else {
        nn::categorical_sample_into(disc_actions_scratch_, probs_scratch_,
                                    pol_out, rng);
        nn::categorical_log_prob_into(logp_scratch_, probs_scratch_, pol_out,
                                      disc_actions_scratch_);
        batch.behaviour_log_probs[t] = logp_scratch_[0];
        batch.actions_disc.push_back(disc_actions_scratch_[0]);
        result = env_->step_discrete_into(disc_actions_scratch_[0],
                                          current_obs_);
      }

      batch.rewards[t] = static_cast<float>(result.reward);
      episode_return_ += result.reward;
      batch.dones[t] = result.done ? 1.0f : 0.0f;
      if (result.done) {
        batch.episode_returns.push_back(episode_return_);
        episode_active_ = false;
      }
    }

    if (batch.dones[horizon - 1] < 0.5f) {
      obs_row_.ensure_shape({1, obs_dim});
      std::copy(current_obs_.begin(), current_obs_.end(),
                obs_row_.row(0).begin());
      batch.bootstrap_value = policy.value_forward(obs_row_)[0];
    }
    return batch;
  }

 private:
  void ensure_episode(Rng& rng) {
    if (!episode_active_) {
      current_obs_.resize(env_->spec().obs.flat_dim);
      env_->reset_into(rng.next(), current_obs_);
      episode_active_ = true;
      episode_return_ = 0.0;
    }
  }

  std::unique_ptr<envs::Env> env_;
  std::vector<float> current_obs_;
  bool episode_active_ = false;
  double episode_return_ = 0.0;
  Tensor obs_row_;
  Tensor action_scratch_;
  Tensor logp_scratch_;
  Tensor probs_scratch_;
  std::vector<std::size_t> disc_actions_scratch_;
};

// -- K=1 reference equivalence ------------------------------------------------

TEST(VecActorK1, ByteIdenticalToScalarActorContinuous) {
  auto policy = policy_for("Hopper", 9);
  ReferenceActor scalar(envs::make_env("Hopper"));
  Rng scalar_rng(42);
  VecActor vec = make_vec("Hopper", 1, 42);
  VecActorScratch scratch;
  // Multi-call: episode state (lazy resets, running returns) must carry
  // across sample() calls exactly as the reference's does.
  for (int call = 0; call < 4; ++call) {
    auto a = scalar.sample(policy, 57, call, scalar_rng);
    auto b = vec.sample(policy, scratch, 57, call);
    ASSERT_EQ(a.serialize(), b.serialize()) << "call " << call;
  }
}

TEST(VecActorK1, ByteIdenticalToScalarActorDiscrete) {
  auto policy = policy_for("Qbert", 3);
  ReferenceActor scalar(envs::make_env("Qbert"));
  Rng scalar_rng(11);
  VecActor vec = make_vec("Qbert", 1, 11);
  VecActorScratch scratch;
  for (int call = 0; call < 3; ++call) {
    auto a = scalar.sample(policy, 80, call, scalar_rng);
    auto b = vec.sample(policy, scratch, 80, call);
    ASSERT_EQ(a.serialize(), b.serialize()) << "call " << call;
  }
}

TEST(VecActorK1, ByteIdenticalUnderCallerRngOverload) {
  // The driver-body form: all draws from the per-invocation keyed stream.
  auto policy = policy_for("Hopper", 9);
  ReferenceActor scalar(envs::make_env("Hopper"));
  VecActor vec = make_vec("Hopper", 1, 5);
  VecActorScratch scratch;
  for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
    Rng ra(sim::invocation_stream(123, 7, attempt));
    Rng rb(sim::invocation_stream(123, 7, attempt));
    auto a = scalar.sample(policy, 40, 1, ra);
    auto b = vec.sample(policy, scratch, 40, 1, rb);
    ASSERT_EQ(a.serialize(), b.serialize()) << "attempt " << attempt;
  }
}

// -- batch structure ----------------------------------------------------------

TEST(VecActorBatch, EnvMajorLayoutAndSegments) {
  const std::size_t k = 4, h = 32;
  auto policy = policy_for("Hopper");
  VecActor vec = make_vec("Hopper", k, 3);
  VecActorScratch scratch;
  auto batch = vec.sample(policy, scratch, h, 17);
  EXPECT_EQ(batch.size(), k * h);
  EXPECT_EQ(batch.policy_version, 17u);
  EXPECT_EQ(batch.obs.dim(0), k * h);
  EXPECT_EQ(batch.actions_cont.dim(0), k * h);
  ASSERT_EQ(batch.segments.size(), k);
  for (std::size_t e = 0; e < k; ++e)
    EXPECT_EQ(batch.segments[e].start, e * h);
  // Segment views must tile the batch contiguously.
  const auto views = batch.segment_views();
  ASSERT_EQ(views.size(), k);
  for (std::size_t e = 0; e < k; ++e) {
    EXPECT_EQ(views[e].start, e * h);
    EXPECT_EQ(views[e].end, (e + 1) * h);
  }
  EXPECT_TRUE(batch.obs.all_finite());
  EXPECT_TRUE(batch.behaviour_log_probs.all_finite());
}

TEST(VecActorBatch, SegmentBootstrapZeroOnDoneSeam) {
  // Drive long enough that some envs end their horizon mid-episode and
  // (over calls) some end exactly on a done; the invariant is per segment:
  // done at the seam row <=> bootstrap == 0.
  const std::size_t k = 3, h = 64;
  auto policy = policy_for("Hopper");
  VecActor vec = make_vec("Hopper", k, 21);
  VecActorScratch scratch;
  for (int call = 0; call < 6; ++call) {
    auto batch = vec.sample(policy, scratch, h, 0);
    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t seam = e * h + h - 1;
      if (batch.dones[seam] > 0.5f) {
        EXPECT_FLOAT_EQ(batch.segments[e].bootstrap, 0.0f);
      }
    }
  }
}

TEST(VecActorBatch, DonesMatchEpisodeReturnsCount) {
  // Discrete env, K=1 and K=2, two calls. Episodes persist across sample()
  // calls, so an episode that straddles the call boundary is recorded once,
  // when it ends, with the rewards of both calls in its return.
  const std::size_t h = 200;
  const auto env = "Qbert";
  const auto spec = envs::env_spec(env);
  auto policy = policy_for(env, 2);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    VecActor vec = make_vec(env, k, 4);
    VecActorScratch scratch;
    std::vector<double> running(k, 0.0);
    double ended = 0.0, recorded = 0.0;
    std::size_t dones = 0;
    for (int call = 0; call < 2; ++call) {
      auto batch = vec.sample(policy, scratch, h, 0);
      ASSERT_EQ(batch.actions_disc.size(), k * h);
      EXPECT_TRUE(batch.actions_cont.empty());
      for (auto a : batch.actions_disc) EXPECT_LT(a, spec.act_dim);
      std::size_t call_dones = 0;
      for (std::size_t e = 0; e < k; ++e) {
        for (std::size_t t = 0; t < h; ++t) {
          const std::size_t row = e * h + t;
          running[e] += batch.rewards[row];
          if (batch.dones[row] > 0.5f) {
            ++call_dones;
            ended += running[e];
            running[e] = 0.0;
          }
        }
      }
      EXPECT_EQ(call_dones, batch.episode_returns.size()) << "K=" << k;
      for (double r : batch.episode_returns) recorded += r;
      dones += call_dones;
    }
    EXPECT_GE(dones, 1u) << "400 Qbert steps per env should finish episodes";
    EXPECT_NEAR(recorded, ended, 1e-4 * (1.0 + std::abs(ended)))
        << "K=" << k << ": episode returns must span sample() calls";
  }
}

TEST(VecActorBatch, SameSeedSameBytes) {
  // K=1 and K=4: the same seed reproduces the bytes; another seed diverges.
  auto policy = policy_for("Hopper", 9);
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    VecActor a = make_vec("Hopper", k, 42);
    VecActor b = make_vec("Hopper", k, 42);
    VecActor c = make_vec("Hopper", k, 43);
    VecActorScratch sa, sb, sc;
    const auto bytes = a.sample(policy, sa, 30, 0).serialize();
    EXPECT_EQ(bytes, b.sample(policy, sb, 30, 0).serialize()) << "K=" << k;
    EXPECT_NE(bytes, c.sample(policy, sc, 30, 0).serialize()) << "K=" << k;
  }
}

TEST(VecActorBatch, TotalEnvStepsAdvances) {
  auto policy = policy_for("Hopper");
  VecActor vec = make_vec("Hopper", 4, 1);
  VecActorScratch scratch;
  vec.sample(policy, scratch, 16, 0);
  EXPECT_EQ(vec.total_env_steps(), 64u);
  EXPECT_EQ(vec.num_envs(), 4u);
}

TEST(VecActorBatch, ZeroHorizonThrows) {
  auto policy = policy_for("Hopper");
  VecActor vec = make_vec("Hopper", 2, 1);
  VecActorScratch scratch;
  EXPECT_THROW(vec.sample(policy, scratch, 0, 0), Error);
}

// -- allocation flatness ------------------------------------------------------
// "No per-step allocations" pinned as: tensor-buffer allocations per
// sample() call do not grow with the horizon (the per-call constant is the
// result batch's own tensors; the hot loop itself contributes zero).

std::uint64_t allocs_per_call(VecActor& actor, VecActorScratch& scratch,
                              nn::ActorCritic& policy, std::size_t horizon) {
  const std::uint64_t before = tensor_buffer_allocs();
  actor.sample(policy, scratch, horizon, 0);
  return tensor_buffer_allocs() - before;
}

TEST(ActorAllocs, ScalarSampleFlatAfterWarmUp) {
  // The one-env actor (K=1): single-row forwards every step.
  auto policy = policy_for("Hopper");
  VecActor actor = make_vec("Hopper", 1, 1);
  VecActorScratch scratch;
  actor.sample(policy, scratch, 64, 0);  // warm up scratch + policy buffers
  const auto short_call = allocs_per_call(actor, scratch, policy, 8);
  const auto long_call = allocs_per_call(actor, scratch, policy, 64);
  EXPECT_EQ(short_call, long_call)
      << "per-step tensor allocations leaked into the one-env hot loop";
}

TEST(ActorAllocs, VecSampleFlatAfterWarmUp) {
  auto policy = policy_for("Hopper");
  VecActor vec = make_vec("Hopper", 4, 1);
  VecActorScratch scratch;
  vec.sample(policy, scratch, 64, 0);  // warm up scratch + policy buffers
  const auto short_call = allocs_per_call(vec, scratch, policy, 8);
  const auto long_call = allocs_per_call(vec, scratch, policy, 64);
  EXPECT_EQ(short_call, long_call)
      << "per-step tensor allocations leaked into the batched hot loop";
}

}  // namespace
}  // namespace stellaris::rl
