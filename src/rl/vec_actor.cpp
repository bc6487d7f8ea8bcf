#include "rl/vec_actor.hpp"

#include <algorithm>

#include "nn/distributions.hpp"

namespace stellaris::rl {

VecActor::VecActor(std::unique_ptr<envs::VecEnv> env, std::uint64_t seed)
    : env_(std::move(env)), rng_(seed) {
  const std::size_t k = env_->size();
  current_obs_ = Tensor({k, env_->spec().obs.flat_dim});
  active_.assign(k, 0);
  episode_return_.assign(k, 0.0);
}

void VecActor::ensure_episodes(Rng& rng) {
  // Lazy reset in env index order: one seed draw per dead env, from the
  // same stream the action noise uses.
  for (std::size_t e = 0; e < env_->size(); ++e) {
    if (active_[e]) continue;
    env_->reset_env_into(e, rng.next(), current_obs_.row(e));
    active_[e] = 1;
    episode_return_[e] = 0.0;
  }
}

SampleBatch VecActor::sample(nn::ActorCritic& policy, VecActorScratch& scratch,
                             std::size_t horizon,
                             std::uint64_t policy_version) {
  return sample(policy, scratch, horizon, policy_version, rng_);
}

SampleBatch VecActor::sample(nn::ActorCritic& policy, VecActorScratch& scratch,
                             std::size_t horizon,
                             std::uint64_t policy_version, Rng& rng) {
  STELLARIS_CHECK_MSG(horizon > 0, "sample horizon must be positive");
  const auto& spec = env_->spec();
  const std::size_t k = env_->size();
  const std::size_t obs_dim = spec.obs.flat_dim;
  const bool continuous = spec.action_kind == nn::ActionKind::kContinuous;
  const std::size_t total = k * horizon;

  SampleBatch batch;
  batch.action_kind = spec.action_kind;
  batch.policy_version = policy_version;
  batch.obs = Tensor({total, obs_dim});
  if (continuous) batch.actions_cont = Tensor({total, spec.act_dim});
  else batch.actions_disc.resize(total);
  batch.rewards = Tensor({total});
  batch.dones = Tensor({total});
  batch.behaviour_log_probs = Tensor({total});
  batch.values = Tensor({total});

  scratch.pol_out.ensure_shape({total, spec.act_dim});
  for (std::size_t t = 0; t < horizon; ++t) {
    ensure_episodes(rng);
    // The step needs only the next decision: ONE batched (K, obs_dim)
    // policy forward, the action draw and the env step. Values and
    // behaviour log-probs are computed after the loop.
    const Tensor& pol_out = policy.policy_forward(current_obs_);

    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t row = e * horizon + t;  // env-major layout
      const auto src = current_obs_.row(e);
      std::copy(src.begin(), src.end(), batch.obs.row(row).begin());
      const auto out = pol_out.row(e);
      std::copy(out.begin(), out.end(), scratch.pol_out.row(row).begin());
    }

    if (continuous) {
      // Row-major draws: env e's noise follows env e-1's within a step.
      nn::gaussian_sample_into(scratch.actions, pol_out, *policy.log_std(),
                               rng);
      for (std::size_t e = 0; e < k; ++e) {
        const auto act = scratch.actions.row(e);
        std::copy(act.begin(), act.end(),
                  batch.actions_cont.row(e * horizon + t).begin());
      }
    } else {
      nn::categorical_sample_into(scratch.disc_actions, scratch.probs,
                                  pol_out, rng);
      for (std::size_t e = 0; e < k; ++e)
        batch.actions_disc[e * horizon + t] = scratch.disc_actions[e];
    }

    for (std::size_t e = 0; e < k; ++e) {
      const std::size_t row = e * horizon + t;
      const envs::StepOut out =
          continuous
              ? env_->step_env_into(e, scratch.actions.row(e),
                                    current_obs_.row(e))
              : env_->step_env_discrete_into(e, scratch.disc_actions[e],
                                             current_obs_.row(e));
      batch.rewards[row] = static_cast<float>(out.reward);
      episode_return_[e] += out.reward;
      batch.dones[row] = out.done ? 1.0f : 0.0f;
      if (out.done) {
        // Lazy reset: the row keeps the terminal observation until the next
        // step's ensure_episodes pass.
        batch.episode_returns.push_back(episode_return_[e]);
        active_[e] = 0;
      }
    }
  }

  // Behaviour log-probs: one batched call over the stored policy outputs.
  // Rows are independent, so each equals its per-step value bit for bit.
  if (continuous) {
    nn::gaussian_log_prob_into(batch.behaviour_log_probs, scratch.pol_out,
                               *policy.log_std(), batch.actions_cont);
  } else {
    nn::categorical_log_prob_into(batch.behaviour_log_probs, scratch.lsm,
                                  scratch.pol_out, batch.actions_disc);
  }

  // Values: batched forwards over the stored observations, in chunks of
  // at least K rows. Every GEMM element is one k-ascending chain whatever
  // the row count (DESIGN.md §9), so each V(s_t) keeps its per-step bits.
  const std::size_t chunk = std::max(k, kValueChunkFloats / obs_dim);
  for (std::size_t r0 = 0; r0 < total; r0 += chunk) {
    const std::size_t rows = std::min(chunk, total - r0);
    scratch.obs_chunk.ensure_shape({rows, obs_dim});
    const auto src = batch.obs.data().subspan(r0 * obs_dim, rows * obs_dim);
    std::copy(src.begin(), src.end(), scratch.obs_chunk.data().begin());
    const Tensor& value = policy.value_forward(scratch.obs_chunk);
    std::copy(value.data().begin(), value.data().end(),
              batch.values.data().begin() + static_cast<std::ptrdiff_t>(r0));
  }

  // Bootstrap values for truncated final transitions: one batched value
  // forward covers every env. K=1 keeps the implicit-segment layout (and
  // skips the forward when the batch ends on done); K>1 emits one explicit
  // segment per env.
  bool any_truncated = false;
  for (std::size_t e = 0; e < k; ++e)
    if (batch.dones[e * horizon + horizon - 1] < 0.5f) any_truncated = true;
  if (k == 1) {
    if (any_truncated)
      batch.bootstrap_value = policy.value_forward(current_obs_)[0];
  } else {
    batch.segments.resize(k);
    if (any_truncated) {
      const Tensor& value = policy.value_forward(current_obs_);
      for (std::size_t e = 0; e < k; ++e) {
        const bool done = batch.dones[e * horizon + horizon - 1] >= 0.5f;
        batch.segments[e] = {e * horizon, done ? 0.0f : value[e]};
      }
    } else {
      for (std::size_t e = 0; e < k; ++e)
        batch.segments[e] = {e * horizon, 0.0f};
    }
  }
  return batch;
}

}  // namespace stellaris::rl
