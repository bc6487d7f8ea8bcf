#include "core/kl_probe.hpp"

#include <algorithm>
#include <vector>

#include "nn/distributions.hpp"

namespace stellaris::core {

double policy_update_kl(nn::ActorCritic& model,
                        std::span<const float> params_before,
                        std::span<const float> params_after,
                        const Tensor& probe_obs) {
  STELLARIS_CHECK_MSG(probe_obs.rank() == 2 && probe_obs.dim(0) > 0,
                      "probe_obs must be a non-empty batch");
  model.set_flat_params(params_before);
  const Tensor out_before = model.policy_forward(probe_obs);
  Tensor log_std_before;
  if (model.kind() == nn::ActionKind::kContinuous)
    log_std_before = *model.log_std();

  model.set_flat_params(params_after);
  const Tensor out_after = model.policy_forward(probe_obs);

  Tensor kl;
  if (model.kind() == nn::ActionKind::kContinuous) {
    kl = nn::gaussian_kl(out_before, log_std_before, out_after,
                         *model.log_std());
  } else {
    kl = nn::categorical_kl(out_before, out_after);
  }
  return kl.mean();
}

Tensor probe_rows(const Tensor& obs) {
  const std::size_t rows = std::min<std::size_t>(obs.dim(0), 32);
  std::vector<float> probe(
      obs.vec().begin(),
      obs.vec().begin() + static_cast<std::ptrdiff_t>(rows * obs.dim(1)));
  return Tensor({rows, obs.dim(1)}, std::move(probe));
}

}  // namespace stellaris::core
