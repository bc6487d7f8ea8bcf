// StellarisTrainer — the end-to-end asynchronous serverless training loop
// (Fig. 4's workflow):
//
//   ① actors continuously sample trajectories under the latest policy and
//     publish them to the distributed cache;
//   ② learner functions are invoked on demand per available trajectory
//     batch, pull the latest policy at container start, compute real
//     gradients (PPO or IMPACT), and publish GradientMsgs;
//   ③ the parameter function drains its gradient queue when the
//     staleness-aware rule admits it (Eq. 3), aggregates with
//     staleness-modulated learning rates (Eq. 4) and global IS truncation
//     (Eq. 2), and publishes the new policy.
//
// Orchestration (container starts, queueing, transfers, compute durations,
// cost) runs on the virtual-time serverless platform; the numerics
// (sampling, gradients, updates, evaluations) are computed for real, so
// the reward curves are genuine learning curves.
//
// The `aggregation` config switch also drives the Fig. 11(a) ablation
// baselines (Softsync, SSP, pure-async) on identical infrastructure.
#pragma once

#include <deque>
#include <memory>
#include <map>
#include <optional>
#include <set>

#include "cache/distributed_cache.hpp"
#include "core/config.hpp"
#include "core/learner_update.hpp"
#include "core/metrics.hpp"
#include "fault/fault_injector.hpp"
#include "obs/obs.hpp"
#include "core/parameter_function.hpp"
#include "core/policy_io.hpp"
#include "core/worker_context.hpp"
#include "rl/actor.hpp"
#include "rl/vec_actor.hpp"
#include "serverless/data_loader.hpp"
#include "serverless/platform.hpp"
#include "sim/driver.hpp"
#include "sim/engine.hpp"

namespace stellaris::core {

class StellarisTrainer {
 public:
  explicit StellarisTrainer(TrainConfig cfg);
  ~StellarisTrainer();

  /// Run the configured number of training rounds; returns full telemetry.
  TrainResult train();

 private:
  struct PolicySnapshot {
    std::vector<float> params;
    std::uint64_t version = 0;
  };
  /// Immutable decoded policy, shared by every in-flight function that
  /// pulled the same `policy/latest` cache version (version-gated pulls:
  /// deserialize once per version, never mutate a published snapshot).
  using PolicyRef = std::shared_ptr<const PolicySnapshot>;
  /// Per-invocation box for the snapshot a container pulled at start.
  /// Each retry attempt re-points it at the then-latest policy.
  using PolicyPull = std::shared_ptr<PolicyRef>;

  /// Outputs an actor invocation body computes on its worker thread,
  /// published into shared state by the merge section (DESIGN.md §14).
  struct ActorBodyResult {
    std::vector<std::uint8_t> bytes;  ///< serialized trajectory payload
  };
  /// Outputs of a learner invocation body.
  struct LearnerBodyResult {
    LearnerUpdate update;
    std::size_t batch_size = 0;
    Tensor probe_obs;  ///< first rows of the batch, for the KL probe
  };
  /// A retry chain's output slot: each attempt's spawn re-points the outer
  /// pointer at a fresh result box, so the merge (which runs for the final,
  /// settling attempt) always reads that attempt's outputs.
  template <typename T>
  using BodyBox = std::shared_ptr<std::shared_ptr<T>>;

  void launch_actor(std::size_t actor_idx);
  void on_actor_complete(std::size_t actor_idx, std::uint64_t lid,
                         const PolicyPull& pulled,
                         const BodyBox<ActorBodyResult>& body_out,
                         const serverless::ServerlessPlatform::InvokeResult& r);
  void maybe_launch_learner();
  bool ssp_blocks_launch() const;
  void on_learner_complete(
      std::uint64_t learner_id, std::uint64_t lid, const PolicyPull& pulled,
      const BodyBox<LearnerBodyResult>& body_out,
      const std::vector<std::uint64_t>& traj_ids,
      const serverless::ServerlessPlatform::InvokeResult& r);
  void on_gradient(GradientMsg msg);
  void try_aggregate();
  void start_aggregation(std::vector<GradientQueue::Item> group);
  void finish_round(const ParameterFunction::AggregateStats& stats,
                    double round_kl);
  /// Failed aggregation invocation: restore the parameter state from the
  /// latest checkpoint and drop the lost gradient group.
  void recover_param_fn(const std::vector<GradientQueue::Item>& group);
  /// Periodic checkpoint of the parameter state to the cache.
  void maybe_checkpoint(std::uint64_t new_version);
  std::size_t effective_checkpoint_interval() const;
  /// Pull `policy/latest`, decoding only when the cache entry's version
  /// changed since the previous pull (otherwise the cached decoded
  /// snapshot is shared with the caller).
  PolicyRef latest_policy();
  std::size_t learner_limit() const;
  obs::TrackId trainer_track(obs::TraceRecorder* tr) const;
  void note_grad_queue_depth();
  void note_pending_trajs();

  TrainConfig cfg_;
  envs::EnvSpec env_spec_;
  nn::NetworkSpec net_spec_;

  sim::Engine engine_;
  std::unique_ptr<serverless::ServerlessPlatform> platform_;
  cache::DistributedCache cache_;
  /// Fault plane (null when the plan injects nothing, so zero-fault runs
  /// stay bit-identical to a faultless build).
  std::unique_ptr<fault::FaultInjector> injector_;

  std::unique_ptr<ParameterFunction> param_fn_;
  StalenessSchedule schedule_;
  GradientQueue queue_;

  // Engine-thread scratch models (evaluation and the KL probe only; the
  // invocation bodies lease per-execution WorkerContexts instead).
  std::unique_ptr<nn::ActorCritic> actor_model_;
  std::unique_ptr<nn::ActorCritic> probe_model_;
  /// Scratch pool for invocation bodies (models + batch-ingest buffers).
  std::unique_ptr<WorkerContextPool> ctx_pool_;

  std::vector<std::unique_ptr<rl::VecActor>> actors_;
  std::unique_ptr<envs::Env> eval_env_;

  // Run state.
  bool done_ = false;
  bool param_fn_busy_ = false;
  std::size_t rounds_completed_ = 0;
  std::size_t calib_updates_ = 0;
  std::size_t calib_target_ = 0;
  std::size_t rounds_after_calib_ = 0;
  std::uint64_t next_traj_id_ = 0;
  std::uint64_t next_grad_id_ = 0;
  std::uint64_t next_learner_id_ = 0;
  /// Ledger ids for invocations (actors, learners, parameter fn): one
  /// monotone counter so every `invoke` ledger event is uniquely
  /// addressable by downstream lifecycle events. 0 means "unassigned".
  std::uint64_t next_lid_ = 1;
  std::size_t active_learners_ = 0;
  std::deque<std::uint64_t> pending_trajs_;
  std::vector<std::size_t> paused_actors_;  // backpressured actor indices
  std::unique_ptr<serverless::GpuDataLoader> data_loader_;
  std::map<std::uint64_t, std::uint64_t> traj_loader_ids_;  // traj -> loader
  // Version-gated pull state: last decoded policy snapshot and the cache
  // entry version (put counter) it was decoded from.
  PolicyRef decoded_policy_;
  std::uint64_t decoded_policy_entry_version_ = 0;
  std::multiset<std::uint64_t> inflight_pulled_versions_;  // SSP gating
  /// IMPACT target network, as an immutable shared snapshot: learner
  /// bodies capture the pointer at dispatch, so the target a learner sees
  /// is the one published when its container STARTED — the same virtual
  /// instant under either driver — not whatever is current when the body
  /// happens to execute.
  std::shared_ptr<const std::vector<float>> target_params_;
  std::size_t updates_since_target_ = 0;
  Tensor probe_obs_;
  double last_gate_threshold_ = 0.0;  // β_k in force when the group fired
  // Learner-stat accumulators since the previous round record.
  double acc_learner_kl_ = 0.0;
  double acc_ratio_ = 0.0;
  double acc_vloss_ = 0.0;
  double acc_entropy_ = 0.0;
  std::size_t acc_count_ = 0;

  // Fault-recovery bookkeeping.
  std::uint64_t checkpoints_written_ = 0;
  std::uint64_t restores_ = 0;
  double retry_wait_accum_ = 0.0;

  // Observability (src/obs): run-scoped trace tag + metric handles.
  std::string trace_tag_;
  obs::FixedHistogram* m_staleness_;
  obs::FixedHistogram* m_update_kl_;
  obs::Gauge* m_grad_queue_depth_;
  obs::Gauge* m_pending_trajs_;
  obs::Counter* m_rounds_;
  obs::Gauge* m_round_kl_;
  obs::Gauge* m_round_reward_;
  obs::Counter* m_checkpoints_;
  obs::Counter* m_restores_;
  obs::Counter* m_policy_decodes_;
  obs::Counter* m_policy_pull_reuses_;
  double last_round_end_s_ = 0.0;

  TrainResult result_;

  /// Per-actor chain slot: the last submitted body for each actor. A new
  /// actor body names it as its `after` predecessor, serializing bodies
  /// that mutate the same stateful Actor/env in dispatch order even when a
  /// reclaim-killed attempt's abandoned body is still running.
  std::vector<sim::Driver::Job> actor_chain_;
  /// The run's execution driver. Declared LAST so destruction drains it
  /// FIRST: any abandoned body still running must finish before the
  /// actors/models/pool it references are torn down.
  std::unique_ptr<sim::Driver> driver_;
};

/// Convenience wrapper: configure + train + return.
TrainResult run_training(const TrainConfig& cfg);

}  // namespace stellaris::core
