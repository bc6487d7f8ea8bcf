// Latency and compute-duration model for the virtual-time cluster.
//
// Calibration targets the paper's observed regimes (Fig. 14: one training
// round is seconds-scale with <5% orchestration overhead): V100-class
// learner compute from FLOP counts, per-step environment costs for actors,
// container cold/warm starts in the OpenWhisk range, and the three
// hierarchical data-passing tiers of §V-B (shared memory / RPC / cache).
// Every duration gets deterministic seeded jitter so repeated runs with
// different seeds produce the paper's dynamic, heterogeneous timings.
#pragma once

#include <cstddef>
#include <string>

#include "util/rng.hpp"

namespace stellaris::serverless {

/// Which channel a payload travels over (§V-B hierarchical data passing).
enum class DataTier { kSharedMemory, kRpc, kCache };

struct LatencyModel {
  // -- container lifecycle ---------------------------------------------------
  double cold_start_s = 1.2;
  double warm_start_s = 0.010;
  double keep_alive_s = 600.0;  ///< paper: 10 min, as in OpenWhisk
  double invoke_overhead_s = 0.002;

  // -- data passing tiers (base latency + bandwidth) ---------------------------
  double shm_base_s = 2e-6;
  double shm_bw_Bps = 10e9;
  double rpc_base_s = 150e-6;
  double rpc_bw_Bps = 1.25e9;   // ~10 Gb/s
  double cache_base_s = 400e-6;
  double cache_bw_Bps = 0.6e9;  // serialized + Redis round trip

  // -- compute ------------------------------------------------------------------
  double gpu_efficiency = 0.25;     ///< sustained fraction of peak TFLOPS
  double learner_base_s = 0.05;     ///< kernel-launch / framework floor
  /// Per-sample framework overhead (batch assembly, advantage math, Python
  /// dispatch in the original system) — this is what makes learner-count
  /// scaling visible in Fig. 3(a) at realistic batch sizes.
  double learner_per_sample_s = 4e-4;
  double param_fn_base_s = 0.02;
  double aggregate_bw_Bps = 5e9;    ///< gradient reduction throughput
  double mujoco_step_s = 0.0008;    ///< env step + policy inference on CPU
  double atari_step_s = 0.0025;
  /// Serving-tier inference: per-batch dispatch floor plus per-sample and
  /// per-FLOP terms. The floor is what dynamic batching amortizes — N
  /// requests in one forward pay it once instead of N times (the
  /// TorchBeast batched-inference lever).
  double serve_base_s = 0.002;
  double serve_per_sample_s = 2e-5;
  /// Effective parameter multiplier: the paper trains Table II-sized
  /// networks; this repo's are ~scale× smaller, so virtual compute times
  /// scale the real parameter count back up to land in the paper's regime.
  double param_scale = 16.0;

  double jitter_frac = 0.08;  ///< lognormal-ish multiplicative noise

  /// Transfer time of `bytes` over a tier.
  double transfer_s(DataTier tier, std::size_t bytes) const;

  /// Gradient computation time for a batch on one learner slot.
  double learner_compute_s(std::size_t batch_size, std::size_t param_count,
                           double slot_tflops) const;

  /// Parameter-function aggregation time for `n_grads` gradients.
  double aggregate_s(std::size_t n_grads, std::size_t param_count) const;

  /// Actor sampling time for `steps` environment steps.
  double actor_sample_s(std::size_t steps, bool image_env) const;

  /// Policy-inference time for one served batch (forward only: 2 FLOPs per
  /// parameter per sample), on the serving containers' CPU budget.
  double serve_compute_s(std::size_t batch_size,
                         std::size_t param_count) const;

  /// Apply multiplicative jitter (clamped to stay positive).
  double jittered(double base, Rng& rng) const;
};

}  // namespace stellaris::serverless
