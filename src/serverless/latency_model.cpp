#include "serverless/latency_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace stellaris::serverless {

double LatencyModel::transfer_s(DataTier tier, std::size_t bytes) const {
  const double b = static_cast<double>(bytes);
  switch (tier) {
    case DataTier::kSharedMemory: return shm_base_s + b / shm_bw_Bps;
    case DataTier::kRpc: return rpc_base_s + b / rpc_bw_Bps;
    case DataTier::kCache: return cache_base_s + b / cache_bw_Bps;
  }
  throw Error("unknown data tier");
}

double LatencyModel::learner_compute_s(std::size_t batch_size,
                                       std::size_t param_count,
                                       double slot_tflops) const {
  // Forward + backward ≈ 6 FLOPs per parameter per sample.
  const double flops = 6.0 * static_cast<double>(param_count) * param_scale *
                       static_cast<double>(batch_size);
  return learner_base_s +
         learner_per_sample_s * static_cast<double>(batch_size) +
         flops / (slot_tflops * 1e12 * gpu_efficiency);
}

double LatencyModel::aggregate_s(std::size_t n_grads,
                                 std::size_t param_count) const {
  const double bytes = 4.0 * static_cast<double>(param_count) * param_scale *
                       static_cast<double>(n_grads);
  return param_fn_base_s + bytes / aggregate_bw_Bps;
}

double LatencyModel::actor_sample_s(std::size_t steps, bool image_env) const {
  return static_cast<double>(steps) *
         (image_env ? atari_step_s : mujoco_step_s);
}

double LatencyModel::serve_compute_s(std::size_t batch_size,
                                     std::size_t param_count) const {
  // Forward only (no backward): ~2 FLOPs per parameter per sample, against
  // a CPU-core compute budget in the actor-container class (~25 GFLOP/s
  // sustained — the serving fleet runs on the CPU VMs, not the GPUs).
  const double flops = 2.0 * static_cast<double>(param_count) * param_scale *
                       static_cast<double>(batch_size);
  return serve_base_s +
         serve_per_sample_s * static_cast<double>(batch_size) +
         flops / 25e9;
}

double LatencyModel::jittered(double base, Rng& rng) const {
  const double factor =
      std::max(0.2, 1.0 + jitter_frac * rng.normal());
  return base * factor;
}

}  // namespace stellaris::serverless
