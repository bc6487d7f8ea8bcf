// Action distributions for the policy heads.
//
// Two families, matching the paper's benchmark split:
//  - diagonal Gaussian for MuJoCo-style continuous control (network outputs
//    the mean; a learned state-independent log-std vector provides scale);
//  - categorical over logits for Atari-style discrete control.
//
// Each family provides: sampling, per-sample log-probabilities, entropy, KL
// divergence (for the KL penalty/monitoring in Table III), and the backward
// helpers needed to push PPO/IMPACT surrogate gradients into the network.
// All functions are batch-oriented: rows are samples.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace stellaris {

class Rng;

namespace nn {

// ---------------------------------------------------------------------------
// Diagonal Gaussian
// ---------------------------------------------------------------------------

/// Sample a ~ N(mean_i, exp(log_std)²) per row into `out`, reshaped to
/// (batch, act_dim) reusing its capacity. Draws are row-major.
void gaussian_sample_into(Tensor& out, const Tensor& mean,
                          const Tensor& log_std, Rng& rng);

/// Per-row log π(a|s): returns (batch).
Tensor gaussian_log_prob(const Tensor& mean, const Tensor& log_std,
                         const Tensor& actions);

/// Allocation-free form: `out` is reshaped to (batch).
void gaussian_log_prob_into(Tensor& out, const Tensor& mean,
                            const Tensor& log_std, const Tensor& actions);

/// Gradient of Σ_i coeff_i · log π(a_i | s_i) with respect to mean and
/// log_std. `dmean` is (batch, act_dim); `dlog_std` is (act_dim), summed
/// over the batch (the log-std is a shared parameter).
struct GaussianLogProbGrad {
  Tensor dmean;
  Tensor dlog_std;
};
GaussianLogProbGrad gaussian_log_prob_backward(const Tensor& mean,
                                               const Tensor& log_std,
                                               const Tensor& actions,
                                               const Tensor& coeff);

/// Differential entropy per sample (same for every row given shared std).
double gaussian_entropy(const Tensor& log_std);

/// KL(p ‖ q) per row between two diagonal Gaussians with shared log-stds.
Tensor gaussian_kl(const Tensor& mean_p, const Tensor& log_std_p,
                   const Tensor& mean_q, const Tensor& log_std_q);

// ---------------------------------------------------------------------------
// Categorical
// ---------------------------------------------------------------------------

/// Sample one action index per row from softmax(logits) into `actions`,
/// resized to (batch); `probs_scratch` holds the softmax and is reshaped
/// reusing its capacity. One draw per row, in row order.
void categorical_sample_into(std::vector<std::size_t>& actions,
                             Tensor& probs_scratch, const Tensor& logits,
                             Rng& rng);

/// Per-row log π(a|s) for integer actions.
Tensor categorical_log_prob(const Tensor& logits,
                            const std::vector<std::size_t>& actions);

/// Allocation-free form: `out` is reshaped to (batch); `lsm_scratch` holds
/// the log-softmax and is reshaped reusing its capacity.
void categorical_log_prob_into(Tensor& out, Tensor& lsm_scratch,
                               const Tensor& logits,
                               const std::vector<std::size_t>& actions);

/// Gradient of Σ_i coeff_i · log π(a_i|s_i) w.r.t. logits: (batch, n).
Tensor categorical_log_prob_backward(const Tensor& logits,
                                     const std::vector<std::size_t>& actions,
                                     const Tensor& coeff);

/// Per-row entropy of softmax(logits).
Tensor categorical_entropy(const Tensor& logits);

/// Gradient of Σ_i coeff_i · H_i with respect to logits.
Tensor categorical_entropy_backward(const Tensor& logits, const Tensor& coeff);

/// KL(p ‖ q) per row between two categorical logit sets.
Tensor categorical_kl(const Tensor& logits_p, const Tensor& logits_q);

}  // namespace nn
}  // namespace stellaris
