// IMPACT (Luo et al., ICLR 2020): importance-weighted asynchronous
// training with a clipped *target-network* surrogate on top of V-trace
// corrections — the paper's off-policy integration baseline (§VIII-B1).
//
// Faithfulness notes (documented substitutions):
//  - The surrogate ratio is π_current / π_target (IMPACT's key trick), with
//    V-trace advantages computed against the behaviour policy μ.
//  - The target network is refreshed by copying current weights every
//    `target_update_freq` updates (Table III lists 1.0).
//
// The target network is fixed for a whole learner update, so its
// log-probs are too: impact_target_log_probs computes them once per
// update, and every SGD epoch's impact_compute_gradients reads them.
#pragma once

#include <limits>
#include <memory>

#include "nn/actor_critic.hpp"
#include "rl/ppo.hpp"
#include "rl/sample_batch.hpp"

namespace stellaris::rl {

/// Table III, IMPACT column.
struct ImpactConfig {
  double lr = 5e-4;
  double gamma = 0.99;
  double clip_param = 0.4;
  double kl_coeff = 1.0;
  double kl_target = 0.01;
  double entropy_coeff = 0.01;
  double vf_coeff = 1.0;
  double vtrace_rho_bar = 1.0;
  double vtrace_c_bar = 1.0;
  double max_grad_norm = 10.0;
  std::size_t target_update_freq = 1;  ///< updates between target refreshes
  std::size_t sgd_iters = 1;  ///< local SGD epochs per trajectory batch
  double log_std_grad_scale = 0.25;  ///< see PpoConfig::log_std_grad_scale
};

/// log π_target(a_t | s_t) of every row of `batch`, shape (n). Runs
/// target.policy_forward over chunks of max(1, kValueChunkFloats / obs_dim)
/// rows, so the target's buffers stay at the chunk size; every GEMM element
/// and log-prob is row-independent, so each entry equals its whole-batch
/// value bit for bit.
Tensor impact_target_log_probs(nn::ActorCritic& target,
                               const SampleBatch& batch);

/// Accumulate IMPACT gradients for `batch` into `model`, using the target
/// network's log-probs `logp_target` (impact_target_log_probs) for the
/// surrogate ratio. Value targets / advantages come from V-trace, so the
/// batch does NOT need GAE. `ratio_cap` is the Stellaris truncation ρ;
/// `kl_stop` discards the epoch before its backward, as in
/// ppo_compute_gradients.
LossStats impact_compute_gradients(
    nn::ActorCritic& model, const Tensor& logp_target,
    const SampleBatch& batch, const ImpactConfig& cfg,
    double ratio_cap = std::numeric_limits<double>::infinity(),
    double kl_stop = std::numeric_limits<double>::infinity());

}  // namespace stellaris::rl
