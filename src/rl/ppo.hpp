// Proximal Policy Optimization with the clipped surrogate objective
// (Schulman et al., 2017) and KL penalty, configured per the paper's
// Table III. This is the gradient producer that both the serverful
// baselines and Stellaris' learner functions call.
#pragma once

#include <limits>

#include "nn/actor_critic.hpp"
#include "rl/sample_batch.hpp"

namespace stellaris::rl {

/// Table III, PPO column (learning rate etc. are overridable per bench).
struct PpoConfig {
  double lr = 5e-5;
  double gamma = 0.99;
  double gae_lambda = 0.95;
  double clip_param = 0.3;
  double kl_coeff = 0.2;
  double kl_target = 0.01;
  double entropy_coeff = 0.0;
  double vf_coeff = 1.0;
  double max_grad_norm = 10.0;
  std::size_t sgd_iters = 1;  ///< SGD epochs per trajectory batch
  /// Damping on the shared log-std gradient. With small batches the σ
  /// gradient is noise-dominated and adaptive optimizers turn that noise
  /// into full-size steps; damping keeps mean-learning in charge of
  /// progress while σ adapts slowly (common practice in production PPO).
  double log_std_grad_scale = 0.25;
};

/// Diagnostics from one gradient computation.
struct LossStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double kl = 0.0;          ///< sample KL estimate KL(μ ‖ π), k3 estimator
  double mean_ratio = 0.0;  ///< mean importance ratio π/μ over the batch
  double max_ratio = 0.0;
  double min_ratio = 0.0;
  double clip_fraction = 0.0;  ///< fraction of samples hitting the PPO clip
};

/// Accumulate PPO gradients for `batch` into `model` (gradients are NOT
/// zeroed first — callers zero_grad() when starting a fresh computation).
///
/// `ratio_cap` is Stellaris' importance-sampling truncation ρ (Eq. 2)
/// applied per sample: ratios above the cap contribute the capped constant
/// to the surrogate and no gradient. Pass +inf for vanilla PPO behaviour.
/// The batch must have advantages computed (compute_gae).
///
/// `kl_stop` is the learner's trust-region stop: every LossStats field
/// comes from the forward pass, and when stats.kl exceeds `kl_stop` the
/// epoch is discarded before its backward runs, so nothing is accumulated.
/// The default never stops.
LossStats ppo_compute_gradients(
    nn::ActorCritic& model, const SampleBatch& batch, const PpoConfig& cfg,
    double ratio_cap = std::numeric_limits<double>::infinity(),
    double kl_stop = std::numeric_limits<double>::infinity());

/// The backward half PPO and IMPACT share: push the per-row log-prob
/// coefficients `coeff` (dL/dlog π) and the value gradients `dvalues`
/// back through `model`, from the policy output `pol_out` of its last
/// forward. The continuous log-std gradient is scaled by
/// `log_std_grad_scale`, and both action kinds take the entropy bonus
/// `entropy_coeff`.
void accumulate_loss_gradients(nn::ActorCritic& model,
                               const SampleBatch& batch,
                               const Tensor& pol_out, const Tensor& coeff,
                               const Tensor& dvalues,
                               double log_std_grad_scale,
                               double entropy_coeff);

}  // namespace stellaris::rl
