#include "core/learner_update.hpp"

#include <algorithm>
#include <limits>

#include "nn/optimizer.hpp"
#include "rl/gae.hpp"
#include "rl/impact.hpp"
#include "rl/ppo.hpp"

namespace stellaris::core {

LearnerUpdate compute_learner_update(const TrainConfig& cfg,
                                     nn::ActorCritic& model,
                                     nn::ActorCritic& target,
                                     const std::vector<float>& pulled_params,
                                     rl::SampleBatch& batch) {
  const bool is_ppo = cfg.algorithm == Algorithm::kPpo;
  const double cap = cfg.enable_truncation
                         ? cfg.ratio_rho
                         : std::numeric_limits<double>::infinity();
  const double alpha0 = is_ppo ? cfg.ppo.lr : cfg.impact.lr;
  const std::size_t iters = std::max<std::size_t>(
      1, is_ppo ? cfg.ppo.sgd_iters : cfg.impact.sgd_iters);
  const double kl_stop =
      2.5 * (is_ppo ? cfg.ppo.kl_target : cfg.impact.kl_target);
  const double max_norm =
      is_ppo ? cfg.ppo.max_grad_norm : cfg.impact.max_grad_norm;
  const auto damp = static_cast<float>(is_ppo ? cfg.ppo.log_std_grad_scale
                                              : cfg.impact.log_std_grad_scale);

  if (is_ppo) {
    rl::compute_gae(batch, cfg.ppo.gamma, cfg.ppo.gae_lambda);
    rl::normalize_advantages(batch);
  }

  // The target net is fixed for the whole update, so its log-probs are too.
  const Tensor logp_target =
      is_ppo ? Tensor() : rl::impact_target_log_probs(target, batch);

  LearnerUpdate out;
  std::vector<float> local = pulled_params;
  std::vector<float> grad;  // refilled by every epoch that steps
  nn::AdamOptimizer opt(alpha0);
  const auto [ls_off, ls_len] = model.log_std_span();
  std::vector<float> ls_before(ls_len);

  for (std::size_t e = 0; e < iters; ++e) {
    // Trust-region early stop once the sample KL overshoots (never in the
    // first epoch). The stopping epoch's stats come from its forward pass;
    // its backward would be discarded, so the loss skips it.
    const double stop =
        e > 0 ? kl_stop : std::numeric_limits<double>::infinity();
    model.set_flat_params(local);
    model.zero_grad();
    out.stats = is_ppo ? rl::ppo_compute_gradients(model, batch, cfg.ppo,
                                                   cap, stop)
                       : rl::impact_compute_gradients(model, logp_target,
                                                      batch, cfg.impact, cap,
                                                      stop);
    ++out.epochs_run;
    if (out.stats.kl > stop) break;

    model.flat_grads_into(grad);
    nn::clip_grad_norm(grad, max_norm);
    for (std::size_t i = 0; i < ls_len; ++i)
      ls_before[i] = local[ls_off + i];
    opt.step(local, grad);
    // Damp the log-std step (Adam is scale-invariant to gradient damping)
    // and keep σ bounded.
    for (std::size_t i = 0; i < ls_len; ++i) {
      float& v = local[ls_off + i];
      v = ls_before[i] + damp * (v - ls_before[i]);
      v = std::clamp(v, -2.5f, 0.0f);
    }
  }

  out.delta.resize(local.size());
  for (std::size_t i = 0; i < local.size(); ++i)
    out.delta[i] = pulled_params[i] - local[i];
  return out;
}

}  // namespace stellaris::core
