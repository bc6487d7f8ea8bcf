// Training-run telemetry: everything the benchmark harness needs to draw
// the paper's figures — per-round reward curves with virtual timestamps
// and cost (Figs. 2, 6, 7, 9, 10, 12), staleness samples (Fig. 3(b)),
// per-update KL (Fig. 3(c)), cost splits (Fig. 8), GPU utilization
// (Fig. 3(a)), and the one-round latency breakdown (Fig. 14).
#pragma once

#include <cstdint>
#include <vector>

namespace stellaris::core {

/// One policy-update round.
struct RoundRecord {
  std::size_t round = 0;
  double time_s = 0.0;           ///< virtual wall-clock at update
  double reward = 0.0;           ///< evaluated episodic reward (NaN if skipped)
  bool evaluated = false;
  double mean_staleness = 0.0;
  double staleness_threshold = 0.0;  ///< β_k in force for this round
  std::size_t group_size = 0;        ///< gradients aggregated
  double mean_lr_factor = 1.0;
  double mean_trunc_scale = 1.0;
  double kl = 0.0;               ///< probe KL of this policy update
  double learner_kl = 0.0;       ///< mean sample KL reported by learners
  double learner_ratio = 1.0;    ///< mean importance ratio at learners
  double value_loss = 0.0;       ///< mean critic loss at learners
  double entropy = 0.0;          ///< mean policy entropy at learners
  double cost_so_far_usd = 0.0;
  std::size_t learner_invocations = 0;
};

/// Virtual-time components of a training run (sums over all rounds);
/// the stacked bars of Fig. 14.
struct LatencyBreakdown {
  double actor_sample_s = 0.0;
  double data_load_s = 0.0;      ///< trajectory/policy transfers
  double learner_start_s = 0.0;  ///< container start latencies
  double learner_compute_s = 0.0;
  double grad_submit_s = 0.0;    ///< gradient transfers to the cache
  double aggregate_s = 0.0;      ///< parameter-function compute
  double broadcast_s = 0.0;      ///< policy publish transfers

  double total() const {
    return actor_sample_s + data_load_s + learner_start_s +
           learner_compute_s + grad_submit_s + aggregate_s + broadcast_s;
  }
  /// Orchestration overhead = everything that is not actor sampling or
  /// learner compute (the paper reports < 5%).
  double overhead_fraction() const;
};

/// Fault-plane outcome of a run (all zero when no faults are configured).
struct FaultStats {
  std::uint64_t crashes = 0;            ///< container crashes injected
  std::uint64_t vm_reclaims = 0;        ///< spot-style host reclamations
  std::uint64_t stragglers = 0;         ///< slowdown faults injected
  std::uint64_t cache_faults = 0;       ///< cache op failures injected
  std::uint64_t cache_delays = 0;       ///< slow (but successful) cache ops
  std::uint64_t failed_invocations = 0; ///< invocations that did not finish ok
  std::uint64_t retries = 0;            ///< re-invocations after failure
  std::uint64_t giveups = 0;            ///< retry chains that exhausted policy
  std::uint64_t checkpoints = 0;        ///< parameter-state snapshots written
  std::uint64_t restores = 0;           ///< recoveries from a checkpoint
  double wasted_cost_usd = 0.0;         ///< $ billed for failed work
  double wasted_seconds = 0.0;          ///< billed seconds of failed work
  double retry_wait_s = 0.0;            ///< virtual time spent in backoff
};

struct TrainResult {
  std::vector<RoundRecord> rounds;
  std::vector<double> staleness_samples;  ///< per-gradient (Fig. 3(b))
  std::vector<double> update_kls;         ///< KL(θ_c, θ_{c+1}) (Fig. 3(c))

  double total_time_s = 0.0;
  double total_cost_usd = 0.0;
  double learner_cost_usd = 0.0;
  double actor_cost_usd = 0.0;
  double parameter_cost_usd = 0.0;
  double final_reward = 0.0;   ///< mean of evaluated rewards in last 20%
  double best_reward = 0.0;
  double gpu_utilization = 0.0;
  double learner_busy_s = 0.0;  ///< billable learner-function seconds
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t learner_invocations = 0;
  double delta_max = 0.0;  ///< calibrated round-0 max staleness
  LatencyBreakdown breakdown;
  FaultStats faults;

  /// Sets best_reward and final_reward from the evaluated rounds.
  void summarize_rewards();
};

}  // namespace stellaris::core
