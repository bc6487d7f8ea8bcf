// Vectorized environment container: K environment slots stepped one at a
// time by rl::VecActor (DESIGN.md §17), which batches policy inference
// across them. Episode bookkeeping (lazy resets, running returns) is the
// actor's; this class only forwards to slot `i` and counts steps.
//
// RNG discipline: VecEnv owns no random stream. Every reset seed arrives
// from the caller — VecActor draws it from the per-invocation keyed stream
// (or its own stream in the sync baseline) — so a driver body can never
// reach cross-invocation RNG state through this class. The driver-purity
// analyzer flags any member-`rng_` draw in these files.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "envs/env.hpp"

namespace stellaris::envs {

class VecEnv {
 public:
  /// Take ownership of `envs` as the slots. Throws Error when `envs` is
  /// empty or a slot's spec (obs flat_dim, action_kind, act_dim) differs
  /// from slot 0's.
  explicit VecEnv(std::vector<std::unique_ptr<Env>> envs);
  /// Construct `n` copies of the registry env `name`.
  // The third parameter is unused; the benchmark harness still passes it.
  VecEnv(const std::string& name, std::size_t n, std::uint64_t /*seed*/);

  std::size_t size() const { return envs_.size(); }
  const EnvSpec& spec() const { return spec_; }

  // Pass-throughs to env `i`: no auto-reset; only total_steps() advances
  // on steps.
  void reset_env_into(std::size_t i, std::uint64_t seed, std::span<float> obs);
  StepOut step_env_into(std::size_t i, std::span<const float> action,
                        std::span<float> obs);
  StepOut step_env_discrete_into(std::size_t i, std::size_t action,
                                 std::span<float> obs);

  /// Total environment steps taken across all slots.
  std::uint64_t total_steps() const { return total_steps_; }

 private:
  EnvSpec spec_;
  std::vector<std::unique_ptr<Env>> envs_;
  std::uint64_t total_steps_ = 0;
};

}  // namespace stellaris::envs
