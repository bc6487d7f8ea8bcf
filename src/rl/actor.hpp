// Policy evaluation: the episodic reward curves of the paper's figures.
// Rollouts for training go through rl::VecActor (vec_actor.hpp); this
// header keeps only evaluate_policy.
//
// evaluate_policy would sit in its own rl/evaluate unit, but the e2e
// benchmark harness (bench/e2e/layers.cpp) includes this header for it, so
// it stays here until that harness can be changed.
#pragma once

#include <cstdint>

#include "envs/env.hpp"
#include "nn/actor_critic.hpp"

namespace stellaris::rl {

/// Average episode reward of `policy` over `episodes` (> 0) full episodes
/// with stochastic actions. Reset seeds and action noise come from one
/// stream seeded with `seed`.
double evaluate_policy(envs::Env& env, nn::ActorCritic& policy,
                       std::size_t episodes, std::uint64_t seed);

}  // namespace stellaris::rl
