#include "core/config.hpp"

namespace stellaris::core {

const char* algorithm_name(Algorithm algo) {
  switch (algo) {
    case Algorithm::kPpo: return "PPO";
    case Algorithm::kImpact: return "IMPACT";
  }
  return "?";
}

const char* aggregation_mode_name(AggregationMode mode) {
  switch (mode) {
    case AggregationMode::kStellaris: return "stellaris";
    case AggregationMode::kSoftsync: return "softsync";
    case AggregationMode::kSsp: return "ssp";
    case AggregationMode::kPureAsync: return "pure-async";
  }
  return "?";
}

void TrainConfig::validate() const {
  if (env_name.empty()) throw ConfigError("env_name empty");
  if (num_actors == 0) throw ConfigError("num_actors must be >= 1");
  if (rounds == 0) throw ConfigError("rounds must be >= 1");
  if (horizon == 0) throw ConfigError("horizon must be >= 1");
  if (envs_per_actor == 0) throw ConfigError("envs_per_actor must be >= 1");
  if (eval_episodes == 0) throw ConfigError("eval_episodes must be >= 1");
  if (eval_interval == 0) throw ConfigError("eval_interval must be >= 1");
  if (decay_d < 0.0 || decay_d > 1.0)
    throw ConfigError("decay_d must lie in [0, 1]");
  if (smooth_v <= 0.0) throw ConfigError("smooth_v must be positive");
  if (ratio_rho <= 0.0) throw ConfigError("ratio_rho must be positive");
  if (cluster.total_gpus() == 0)
    throw ConfigError("cluster needs at least one GPU VM for learners");
  faults.validate();
  retry.validate();
}

}  // namespace stellaris::core
