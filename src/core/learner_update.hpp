// The learner-function body, shared between Stellaris' asynchronous
// serverless learners and every synchronous baseline (so reward-curve
// comparisons isolate the *architecture*, not the local optimizer): given a
// pulled policy and a trajectory batch, run bounded local SGD epochs (Adam
// at α₀, KL-trust-region early stop, log-std step damping) and return the
// cumulative parameter delta.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "nn/actor_critic.hpp"
#include "rl/sample_batch.hpp"

namespace stellaris::core {

struct LearnerUpdate {
  /// θ_pulled − θ_local: subtracting this from θ_pulled applies the update.
  std::vector<float> delta;
  rl::LossStats stats;  ///< from the last executed epoch
  std::size_t epochs_run = 0;
};

/// Compute a learner update. `model` is scratch space (clobbered); `target`
/// is the IMPACT target network (ignored for PPO), whose log-probs are
/// computed once, before the SGD epochs; `pulled_params` is the
/// policy the learner starts from. Advantage estimation (GAE or V-trace) is
/// segment-aware. `batch` is modified in place (advantages filled for PPO).
///
/// An epoch after the first whose sample KL exceeds 2.5 × kl_target stops
/// the update: it counts in `epochs_run` and its forward-pass stats are the
/// returned `stats`, but it runs no backward and takes no step.
LearnerUpdate compute_learner_update(const TrainConfig& cfg,
                                     nn::ActorCritic& model,
                                     nn::ActorCritic& target,
                                     const std::vector<float>& pulled_params,
                                     rl::SampleBatch& batch);

}  // namespace stellaris::core
