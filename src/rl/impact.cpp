#include "rl/impact.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/distributions.hpp"
#include "rl/vtrace.hpp"
#include "tensor/scratch.hpp"

namespace stellaris::rl {

Tensor impact_target_log_probs(nn::ActorCritic& target,
                               const SampleBatch& batch) {
  const std::size_t n = batch.size();
  STELLARIS_CHECK_MSG(n > 0, "empty batch");
  const std::size_t obs_dim = batch.obs.dim(1);
  const bool continuous = batch.action_kind == nn::ActionKind::kContinuous;
  const std::size_t act_dim = continuous ? batch.actions_cont.dim(1) : 0;
  const std::size_t chunk =
      std::min(n, std::max<std::size_t>(1, kValueChunkFloats / obs_dim));

  Tensor logp({n});
  auto& pool = ops::ScratchPool::local();
  auto obs_lease = pool.take({chunk, obs_dim});
  auto act_lease = pool.take({continuous ? chunk : 0, act_dim});
  auto lsm_lease = pool.take({continuous ? 0 : chunk, target.act_dim()});
  auto logp_lease = pool.take({chunk});
  Tensor& obs = *obs_lease;
  Tensor& act = *act_lease;
  Tensor& chunk_logp = *logp_lease;
  std::vector<std::size_t> act_disc;
  for (std::size_t r0 = 0; r0 < n; r0 += chunk) {
    const std::size_t rows = std::min(chunk, n - r0);
    obs.ensure_shape({rows, obs_dim});
    const auto src = batch.obs.data().subspan(r0 * obs_dim, rows * obs_dim);
    std::copy(src.begin(), src.end(), obs.data().begin());
    const Tensor& pol_out = target.policy_forward(obs);
    if (continuous) {
      act.ensure_shape({rows, act_dim});
      const auto a =
          batch.actions_cont.data().subspan(r0 * act_dim, rows * act_dim);
      std::copy(a.begin(), a.end(), act.data().begin());
      nn::gaussian_log_prob_into(chunk_logp, pol_out, *target.log_std(), act);
    } else {
      const auto first =
          batch.actions_disc.begin() + static_cast<std::ptrdiff_t>(r0);
      act_disc.assign(first, first + static_cast<std::ptrdiff_t>(rows));
      nn::categorical_log_prob_into(chunk_logp, *lsm_lease, pol_out,
                                    act_disc);
    }
    std::copy(chunk_logp.data().begin(), chunk_logp.data().end(),
              logp.data().begin() + static_cast<std::ptrdiff_t>(r0));
  }
  return logp;
}

LossStats impact_compute_gradients(nn::ActorCritic& model,
                                   const Tensor& logp_target,
                                   const SampleBatch& batch,
                                   const ImpactConfig& cfg, double ratio_cap,
                                   double kl_stop) {
  const std::size_t n = batch.size();
  STELLARIS_CHECK_MSG(n > 0, "empty batch");
  STELLARIS_CHECK_MSG(logp_target.rank() == 1 && logp_target.dim(0) == n,
                      "logp_target " << shape_str(logp_target.shape())
                                     << " for a batch of " << n);
  const double inv_n = 1.0 / static_cast<double>(n);

  // ---- forward on the current network --------------------------------------
  // References into the model's persistent output buffers, valid through
  // the backward calls below.
  const auto [pol_out, values] = model.forward(batch.obs);

  Tensor logp;
  if (batch.action_kind == nn::ActionKind::kContinuous) {
    logp =
        nn::gaussian_log_prob(pol_out, *model.log_std(), batch.actions_cont);
  } else {
    logp = nn::categorical_log_prob(pol_out, batch.actions_disc);
  }

  // ---- V-trace value targets and advantages (vs behaviour policy μ) ---------
  // Run per independent segment so concatenated batches never propagate
  // corrections across the seam between two actors' rollouts.
  VtraceResult vt{Tensor({n}), Tensor({n})};
  {
    auto slice1 = [](const Tensor& t, std::size_t s, std::size_t e) {
      return Tensor({e - s},
                    std::vector<float>(t.vec().begin() +
                                           static_cast<std::ptrdiff_t>(s),
                                       t.vec().begin() +
                                           static_cast<std::ptrdiff_t>(e)));
    };
    for (const auto& seg : batch.segment_views()) {
      const VtraceResult part = compute_vtrace(
          slice1(batch.behaviour_log_probs, seg.start, seg.end),
          slice1(logp, seg.start, seg.end),
          slice1(batch.rewards, seg.start, seg.end),
          slice1(batch.dones, seg.start, seg.end),
          slice1(values, seg.start, seg.end), seg.bootstrap, cfg.gamma,
          cfg.vtrace_rho_bar, cfg.vtrace_c_bar);
      for (std::size_t t = seg.start; t < seg.end; ++t) {
        vt.vs[t] = part.vs[t - seg.start];
        vt.pg_advantages[t] = part.pg_advantages[t - seg.start];
      }
    }
  }

  // Advantage standardization, as RLlib's IMPACT implementation does.
  double adv_mean = 0.0;
  for (std::size_t t = 0; t < n; ++t) adv_mean += vt.pg_advantages[t];
  adv_mean *= inv_n;
  double adv_var = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double d = vt.pg_advantages[t] - adv_mean;
    adv_var += d * d;
  }
  const double adv_std = std::sqrt(adv_var * inv_n) + 1e-8;

  // ---- surrogate wrt the TARGET network -------------------------------------
  LossStats stats;
  auto coeff_lease = ops::ScratchPool::local().take({n});
  Tensor& coeff = *coeff_lease;
  double surrogate = 0.0, kl_sum = 0.0, sum_ratio = 0.0, max_ratio = 0.0;
  double min_ratio = std::numeric_limits<double>::infinity();
  std::size_t clipped = 0;
  for (std::size_t t = 0; t < n; ++t) {
    const double log_diff =
        std::clamp(static_cast<double>(logp[t]) -
                       static_cast<double>(logp_target[t]),
                   -20.0, 20.0);
    const double r = std::exp(log_diff);
    // Anchor ratio vs the behaviour policy μ: the KL penalty and the
    // trust-region diagnostics must measure drift from the data-generating
    // policy — the target network tracks the current policy too closely to
    // bound asynchronous drift.
    const double log_diff_mu =
        std::clamp(static_cast<double>(logp[t]) -
                       static_cast<double>(batch.behaviour_log_probs[t]),
                   -20.0, 20.0);
    const double r_mu = std::exp(log_diff_mu);
    sum_ratio += r;
    max_ratio = std::max(max_ratio, r);
    min_ratio = std::min(min_ratio, r);
    const double a = (vt.pg_advantages[t] - adv_mean) / adv_std;

    const double r_eff = std::min(r, ratio_cap);
    const double surr1 = r_eff * a;
    const double surr2 =
        std::clamp(r_eff, 1.0 - cfg.clip_param, 1.0 + cfg.clip_param) * a;
    surrogate += std::min(surr1, surr2);

    // As in ppo.cpp: the truncation cap is a V-trace-style capped weight
    // (gradient coefficient min(r, ρ)·A), while the surrogate clip zeroes.
    const bool surr1_active = surr1 <= surr2;
    const bool truncated = r > ratio_cap;
    const bool ppo_clipped =
        !surr1_active &&
        (r_eff <= 1.0 - cfg.clip_param || r_eff >= 1.0 + cfg.clip_param);
    if (ppo_clipped || truncated) ++clipped;

    double c = 0.0;
    if (surr1_active || !ppo_clipped) c = -(r_eff * a) * inv_n;

    // KL penalty against the behaviour policy μ (k3 estimator).
    const double kl_t = (r_mu - 1.0) - log_diff_mu;
    kl_sum += kl_t;
    c += cfg.kl_coeff * (r_mu - 1.0) * inv_n;

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

  // Value regression toward V-trace targets.
  auto dvalues_lease = ops::ScratchPool::local().take({n});
  Tensor& dvalues = *dvalues_lease;
  double vloss = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    const double err = values[t] - vt.vs[t];
    vloss += 0.5 * err * err;
    dvalues[t] = static_cast<float>(cfg.vf_coeff * err * inv_n);
  }
  stats.value_loss = cfg.vf_coeff * vloss * inv_n;

  if (stats.kl > kl_stop) return stats;
  accumulate_loss_gradients(model, batch, pol_out, coeff, dvalues,
                            cfg.log_std_grad_scale, cfg.entropy_coeff);
  return stats;
}

}  // namespace stellaris::rl
