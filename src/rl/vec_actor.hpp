// Vectorized actor: interacts with K environment copies under a policy
// and emits trajectory SampleBatches — Step ① of the paper's workflow
// (§IV). Each step runs ONE batched policy forward (K, obs_dim)×W instead
// of K single-row matvecs — the shape the blocked GEMM kernels are tiled
// for — and nothing the next decision does not need. The values V(s_t) and
// behaviour log-probs log μ(a_t|s_t) are computed after the loop: batched
// value forwards over the stored observations in bounded row chunks (so
// the value net's buffers, and peak RSS, stay near the per-step size) and
// one log-prob call over the stored policy outputs. K=1 is the paper's
// one-env actor function. See DESIGN.md §17 for the full contract.
//
// Per env slot:
//  - episodes persist across sample() calls, so they span training rounds
//    instead of being truncated at every round boundary;
//  - lazy reset: an env that finishes a step stays terminal until the next
//    step's ensure-episode pass draws its reset seed (in env index order)
//    from the SAME stream as action noise;
//  - env-major batch layout: env e owns rows [e·H, (e+1)·H) of the
//    (K·H)-row batch, one SampleBatch::Segment per env, so GAE / V-trace
//    never bootstrap across env seams. K=1 keeps the implicit single
//    segment (SampleBatch::bootstrap_value);
//  - completed-episode returns are recorded for the reward curves.
//
// Buffer ownership: cross-invocation state (current observations, episode
// flags/returns, member RNG) lives in the VecActor, serialized by the
// per-actor job chain. Per-invocation scratch (sampled actions, stored
// policy outputs, softmax workspaces, the value-chunk staging rows) lives
// in a VecActorScratch leased from the worker context pool,
// scratch-by-construction like the rest of WorkerContext.
#pragma once

#include <cstdint>
#include <memory>

#include "envs/vec_env.hpp"
#include "nn/actor_critic.hpp"
#include "rl/sample_batch.hpp"
#include "util/rng.hpp"

namespace stellaris::rl {

/// Per-invocation scratch for VecActor::sample — embedded in
/// core::WorkerContext so concurrent driver bodies each get their own set.
/// Every tensor is fully overwritten before it is read.
struct VecActorScratch {
  Tensor actions;    ///< (K, act_dim) sampled actions
  Tensor pol_out;    ///< (K·H, act_dim) per-step policy outputs, env-major
  Tensor obs_chunk;  ///< (rows, obs_dim) observations of one value chunk
  Tensor probs;      ///< categorical softmax workspace
  Tensor lsm;        ///< categorical log-softmax workspace
  std::vector<std::size_t> disc_actions;  ///< (K) discrete actions
};

class VecActor {
 public:
  VecActor(std::unique_ptr<envs::VecEnv> env, std::uint64_t seed);

  /// Roll every env `horizon` steps under `policy` with one batched policy
  /// forward per step, continuing across episode boundaries. Emits a
  /// (K·horizon)-row env-major SampleBatch with one segment per env (K=1: one
  /// implicit segment). All draws (reset seeds, action noise) come from
  /// `rng` — the caller's per-invocation keyed stream — so a trajectory is a
  /// pure function of (policy, env state, invocation key).
  SampleBatch sample(nn::ActorCritic& policy, VecActorScratch& scratch,
                     std::size_t horizon, std::uint64_t policy_version,
                     Rng& rng);

  /// As above, drawing from the actor's own stream (seeded at
  /// construction) — the sync baseline's round-robin form.
  SampleBatch sample(nn::ActorCritic& policy, VecActorScratch& scratch,
                     std::size_t horizon, std::uint64_t policy_version);

  const envs::EnvSpec& env_spec() const { return env_->spec(); }
  /// Total environment steps taken across all env copies.
  // analyze:test-only-ok tests observe that a sample steps every env copy
  std::uint64_t total_env_steps() const { return env_->total_steps(); }

 private:
  void ensure_episodes(Rng& rng);

  std::unique_ptr<envs::VecEnv> env_;
  Rng rng_;
  // Cross-invocation per-env state.
  Tensor current_obs_;                 ///< (K, obs_dim)
  std::vector<std::uint8_t> active_;   ///< per-env episode-live flag
  std::vector<double> episode_return_;
};

}  // namespace stellaris::rl
