#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>

#include "nn/distributions.hpp"
#include "tensor/scratch.hpp"

namespace stellaris::rl {

LossStats ppo_compute_gradients(nn::ActorCritic& model,
                                const SampleBatch& batch,
                                const PpoConfig& cfg, double ratio_cap,
                                double kl_stop) {
  STELLARIS_CHECK_MSG(batch.has_advantages(),
                      "ppo_compute_gradients needs GAE-filled batch");
  const std::size_t n = batch.size();
  STELLARIS_CHECK_MSG(n > 0, "empty batch");
  const double inv_n = 1.0 / static_cast<double>(n);

  // ---- forward ------------------------------------------------------------
  // References into the nets' persistent output buffers; valid through the
  // backward calls below (backward never touches a forward output buffer).
  const auto [pol_out, values] = model.forward(batch.obs);

  Tensor logp;
  if (batch.action_kind == nn::ActionKind::kContinuous) {
    logp = nn::gaussian_log_prob(pol_out, *model.log_std(),
                                 batch.actions_cont);
  } else {
    logp = nn::categorical_log_prob(pol_out, batch.actions_disc);
  }

  // ---- per-sample surrogate coefficients -----------------------------------
  // Loss L = −E[min(r·A, clip(r)·A, cap·A)] + kl_coeff·KL̂ − ent_coeff·H + VF.
  // dL/dlogp_t = −(1/n)·r_t·A_t·1[surrogate unclipped & r_t < cap]
  //              + (kl_coeff/n)·(r_t − 1)          (k3 KL estimator grad)
  LossStats stats;
  auto coeff_lease = ops::ScratchPool::local().take({n});
  Tensor& coeff = *coeff_lease;
  double sum_ratio = 0.0, max_ratio = 0.0;
  double min_ratio = std::numeric_limits<double>::infinity();
  double surrogate = 0.0, kl_sum = 0.0;
  std::size_t clipped = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double log_diff =
        std::clamp(static_cast<double>(logp[t]) -
                       static_cast<double>(batch.behaviour_log_probs[t]),
                   -20.0, 20.0);
    const double r = std::exp(log_diff);
    sum_ratio += r;
    max_ratio = std::max(max_ratio, r);
    min_ratio = std::min(min_ratio, r);
    const double a = batch.advantages[t];

    const double r_eff = std::min(r, ratio_cap);
    const double surr1 = r_eff * a;
    const double surr2 =
        std::clamp(r_eff, 1.0 - cfg.clip_param, 1.0 + cfg.clip_param) * a;
    surrogate += std::min(surr1, surr2);

    // The Stellaris truncation (Eq. 2) acts like V-trace's ρ̄: the ratio is
    // *capped* at ρ but keeps multiplying the advantage, so the gradient
    // coefficient is min(r, ρ)·A — never zeroed by the cap. The PPO clip,
    // by contrast, is a real min() in the objective: when the clipped
    // branch is active the gradient vanishes.
    const bool surr1_active = surr1 <= surr2;
    const bool truncated = r > ratio_cap;
    const bool ppo_clipped =
        !surr1_active &&
        (r_eff <= 1.0 - cfg.clip_param || r_eff >= 1.0 + cfg.clip_param);
    if (ppo_clipped || truncated) ++clipped;

    double c = 0.0;
    if (surr1_active || !ppo_clipped) c = -(r_eff * a) * inv_n;

    // KL penalty, k3 estimator: KL̂ = (r − 1) − log r  (≥ 0, unbiased-ish).
    const double kl_t = (r - 1.0) - log_diff;
    kl_sum += kl_t;
    c += cfg.kl_coeff * (r - 1.0) * inv_n;

    coeff[t] = static_cast<float>(c);
  }
  stats.policy_loss = -surrogate * inv_n;
  stats.kl = kl_sum * inv_n;
  stats.mean_ratio = sum_ratio * inv_n;
  stats.max_ratio = max_ratio;
  stats.min_ratio = min_ratio;
  stats.clip_fraction = static_cast<double>(clipped) * inv_n;

  stats.entropy = batch.action_kind == nn::ActionKind::kContinuous
                      ? nn::gaussian_entropy(*model.log_std())
                      : nn::categorical_entropy(pol_out).mean();

  // VF loss = vf_coeff · (1/n) Σ ½(V_t − target_t)².
  auto dvalues_lease = ops::ScratchPool::local().take({n});
  Tensor& dvalues = *dvalues_lease;
  double vloss = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double err = values[t] - batch.value_targets[t];
    vloss += 0.5 * err * err;
    dvalues[t] = static_cast<float>(cfg.vf_coeff * err * inv_n);
  }
  stats.value_loss = cfg.vf_coeff * vloss * inv_n;

  if (stats.kl > kl_stop) return stats;
  accumulate_loss_gradients(model, batch, pol_out, coeff, dvalues,
                            cfg.log_std_grad_scale, cfg.entropy_coeff);
  return stats;
}

void accumulate_loss_gradients(nn::ActorCritic& model,
                               const SampleBatch& batch,
                               const Tensor& pol_out, const Tensor& coeff,
                               const Tensor& dvalues,
                               double log_std_grad_scale,
                               double entropy_coeff) {
  if (batch.action_kind == nn::ActionKind::kContinuous) {
    auto g = nn::gaussian_log_prob_backward(pol_out, *model.log_std(),
                                            batch.actions_cont, coeff);
    // Entropy bonus: H depends only on log_std; ∂H/∂logσ_j = 1.
    for (std::size_t j = 0; j < g.dlog_std.numel(); ++j) {
      g.dlog_std[j] = static_cast<float>(
          g.dlog_std[j] * log_std_grad_scale - entropy_coeff);
    }
    model.policy_backward(g.dmean);
    *model.log_std_grad() += g.dlog_std;
  } else {
    Tensor dlogits =
        nn::categorical_log_prob_backward(pol_out, batch.actions_disc, coeff);
    if (entropy_coeff != 0.0) {
      const std::size_t n = batch.size();
      const double inv_n = 1.0 / static_cast<double>(n);
      Tensor ent_coeff =
          Tensor::full({n}, static_cast<float>(-entropy_coeff * inv_n));
      dlogits += nn::categorical_entropy_backward(pol_out, ent_coeff);
    }
    model.policy_backward(dlogits);
  }
  model.value_backward(dvalues);
}

}  // namespace stellaris::rl
