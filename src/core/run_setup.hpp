// Run setup shared by the async trainer and the synchronous baselines, so
// a seed means the same network, envs and streams under every system.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "rl/vec_actor.hpp"

namespace stellaris::core {

/// The Atari stack for image observations, the MuJoCo MLP otherwise.
inline nn::NetworkSpec spec_for(const envs::EnvSpec& env, std::size_t width) {
  return env.obs.image ? nn::NetworkSpec::atari()
                       : nn::NetworkSpec::mujoco(width);
}

/// `cfg.num_actors` actors of `cfg.envs_per_actor` env slots each; actor i
/// seeds its envs and its sampling stream with `cfg.seed * 7919 + i`.
inline std::vector<std::unique_ptr<rl::VecActor>> make_actor_fleet(
    const TrainConfig& cfg) {
  std::vector<std::unique_ptr<rl::VecActor>> actors;
  actors.reserve(cfg.num_actors);
  for (std::size_t i = 0; i < cfg.num_actors; ++i)
    actors.push_back(std::make_unique<rl::VecActor>(
        std::make_unique<envs::VecEnv>(cfg.env_name, cfg.envs_per_actor,
                                       cfg.seed * 7919 + i),
        cfg.seed * 7919 + i));
  return actors;
}

}  // namespace stellaris::core
