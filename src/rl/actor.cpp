#include "rl/actor.hpp"

#include <vector>

#include "nn/distributions.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stellaris::rl {

double evaluate_policy(envs::Env& env, nn::ActorCritic& policy,
                       std::size_t episodes, std::uint64_t seed) {
  STELLARIS_CHECK_MSG(episodes > 0, "evaluate_policy needs episodes > 0");
  const auto& spec = env.spec();
  const bool continuous = spec.action_kind == nn::ActionKind::kContinuous;
  Rng eval_rng(seed);
  double total = 0.0;
  // Buffers hoisted out of the episode loop: the rollout is allocation-free
  // after the first step.
  std::vector<float> obs(spec.obs.flat_dim);
  Tensor obs_row, action, probs;
  std::vector<std::size_t> disc_actions;
  for (std::size_t e = 0; e < episodes; ++e) {
    env.reset_into(eval_rng.next(), obs);
    for (;;) {
      obs_row.ensure_shape({1, spec.obs.flat_dim});
      std::copy(obs.begin(), obs.end(), obs_row.row(0).begin());
      const Tensor& pol_out = policy.policy_forward(obs_row);
      envs::StepOut result;
      if (continuous) {
        nn::gaussian_sample_into(action, pol_out, *policy.log_std(),
                                 eval_rng);
        result = env.step_into(action.row(0), obs);
      } else {
        nn::categorical_sample_into(disc_actions, probs, pol_out, eval_rng);
        result = env.step_discrete_into(disc_actions[0], obs);
      }
      total += result.reward;
      if (result.done) break;
    }
  }
  return total / static_cast<double>(episodes);
}

}  // namespace stellaris::rl
