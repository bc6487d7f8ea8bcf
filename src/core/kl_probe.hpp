// KL probe: measures how far one policy update moved the action
// distribution — the metric of Fig. 3(c). Two parameter snapshots of the
// same architecture are evaluated on a probe observation set (recent real
// observations) and the mean KL of their action distributions is returned.
#pragma once

#include <span>

#include "nn/actor_critic.hpp"

namespace stellaris::core {

/// Mean KL(π_before ‖ π_after) over the probe rows. `model` is scratch
/// space of the right architecture; its parameters are clobbered.
double policy_update_kl(nn::ActorCritic& model,
                        std::span<const float> params_before,
                        std::span<const float> params_after,
                        const Tensor& probe_obs);

/// The probe set drawn from a batch: its first (up to) 32 rows of `obs`.
Tensor probe_rows(const Tensor& obs);

}  // namespace stellaris::core
