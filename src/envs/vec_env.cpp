#include "envs/vec_env.hpp"

#include "util/error.hpp"

namespace stellaris::envs {
namespace {

std::vector<std::unique_ptr<Env>> make_envs(const std::string& name,
                                            std::size_t n) {
  std::vector<std::unique_ptr<Env>> envs;
  envs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) envs.push_back(make_env(name));
  return envs;
}

}  // namespace

VecEnv::VecEnv(std::vector<std::unique_ptr<Env>> envs)
    : envs_(std::move(envs)) {
  STELLARIS_CHECK_MSG(!envs_.empty(), "VecEnv needs at least one environment");
  spec_ = envs_.front()->spec();
  for (std::size_t i = 1; i < envs_.size(); ++i) {
    const EnvSpec& s = envs_[i]->spec();
    STELLARIS_CHECK_MSG(s.obs.flat_dim == spec_.obs.flat_dim &&
                            s.action_kind == spec_.action_kind &&
                            s.act_dim == spec_.act_dim,
                        "VecEnv slot " << i << " (" << s.name
                                       << ") spec differs from slot 0 ("
                                       << spec_.name << ")");
  }
}

VecEnv::VecEnv(const std::string& name, std::size_t n, std::uint64_t)
    : VecEnv(make_envs(name, n)) {}

void VecEnv::reset_env_into(std::size_t i, std::uint64_t seed,
                            std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  envs_[i]->reset_into(seed, obs);
}

StepOut VecEnv::step_env_into(std::size_t i, std::span<const float> action,
                              std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  ++total_steps_;
  return envs_[i]->step_into(action, obs);
}

StepOut VecEnv::step_env_discrete_into(std::size_t i, std::size_t action,
                                       std::span<float> obs) {
  STELLARIS_DCHECK(i < envs_.size());
  ++total_steps_;
  return envs_[i]->step_discrete_into(action, obs);
}

}  // namespace stellaris::envs
