#include "baselines/sync_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "core/kl_probe.hpp"
#include "core/learner_update.hpp"
#include "core/run_setup.hpp"
#include "core/worker_context.hpp"
#include "fault/fault_injector.hpp"
#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "rl/actor.hpp"
#include "rl/vec_actor.hpp"
#include "sim/driver.hpp"
#include "tensor/kernel_config.hpp"
#include "util/error.hpp"

namespace stellaris::baselines {

namespace {

/// Sum of hourly prices of every VM in the cluster — serverful trainers pay
/// for the whole fleet for the whole wall-clock, idle or not (the paper's
/// core cost argument, §II-A).
double cluster_hourly_price(const serverless::ClusterSpec& cluster) {
  double total = 0.0;
  for (const auto& g : cluster.vms)
    total += g.type.hourly_price_usd * static_cast<double>(g.count);
  return total;
}

/// Hourly price of the GPU VMs only (MinionsRL's serverful central
/// learner).
double gpu_vm_hourly_price(const serverless::ClusterSpec& cluster) {
  double total = 0.0;
  for (const auto& g : cluster.vms)
    if (g.type.gpus > 0)
      total += g.type.hourly_price_usd * static_cast<double>(g.count);
  return total;
}

}  // namespace

core::TrainResult run_sync_training(const SyncConfig& sync_cfg) {
  const core::TrainConfig& cfg = sync_cfg.base;
  cfg.validate();
  const bool minions = sync_cfg.variant == SyncVariant::kMinionsLike;
  const std::size_t n_learners =
      minions ? 1 : std::max<std::size_t>(1, sync_cfg.num_learners);

  const envs::EnvSpec env_spec = envs::env_spec(cfg.env_name);
  const nn::NetworkSpec net_spec = core::spec_for(env_spec, cfg.network_width);
  auto build_model = [&](std::uint64_t salt) {
    return std::make_unique<nn::ActorCritic>(env_spec.obs,
                                             env_spec.action_kind,
                                             env_spec.act_dim, net_spec,
                                             cfg.seed ^ salt);
  };
  auto canonical = build_model(0x11);
  auto probe_model = build_model(0x55);
  std::vector<float> params = canonical->flat_params();
  std::vector<float> target_params = params;
  std::size_t updates_since_target = 0;

  auto actors = core::make_actor_fleet(cfg);
  auto eval_env = envs::make_env(cfg.env_name);
  Rng rng(cfg.seed ^ 0x517cULL);

  // Execution driver (DESIGN.md §14): barrier phases fan their per-worker
  // numerics out as driver bodies. Results are identical at any thread
  // count because bodies are joined in worker order BEFORE any phase-level
  // RNG draw, so every stream sees the serial draw sequence.
  auto driver = sim::make_driver(cfg.driver,
                                 sim::resolve_driver_threads(cfg.driver_threads));
  if (driver->worker_threads() > 0)
    ops::apply_driver_thread_budget(driver->worker_threads());
  core::WorkerContextPool ctx_pool(env_spec, net_spec, cfg.seed ^ 0x66ULL);

  // Fault model for the barrier baselines: no event loop here, so the same
  // probabilistic failure environment is replayed analytically. Every
  // worker's duration runs through a retry chain (fault::simulate_retries,
  // identical draw order to the platform's injector); a worker that
  // exhausts its retries is re-run from scratch because a BARRIER cannot
  // proceed without it — failures stall the whole round, the paper's core
  // argument for asynchronous serverless training. The fault RNG is a
  // dedicated stream: a zero-fault plan draws nothing and changes nothing.
  const bool faults_on = cfg.faults.any();
  Rng fault_rng(cfg.faults.config.seed);
  core::FaultStats fstats;
  auto faulted_duration = [&](double base) {
    if (!faults_on) return base;
    double total = 0.0;
    while (true) {
      const auto out = fault::simulate_retries(base, cfg.faults.config,
                                               cfg.retry, fault_rng);
      total += out.elapsed_s;
      fstats.retries += out.attempts > 0 ? out.attempts - 1 : 0;
      fstats.failed_invocations +=
          out.ok ? out.attempts - 1 : out.attempts;
      fstats.wasted_seconds += out.wasted_s;
      if (out.ok) return total;
      ++fstats.giveups;  // chain abandoned; the barrier re-runs the worker
    }
  };

  // Observability: sync baselines trace their barrier phases on three
  // tracks per run so the contrast with the async pipeline is visible in
  // the same Perfetto view.
  obs::begin_run();
  const std::string trace_tag = obs::run_tag();
  obs::Counter& m_rounds = obs::metrics().counter("sync.rounds");
  obs::Gauge& m_round_reward = obs::metrics().gauge("sync.round_reward");

  core::TrainResult result;
  double clock_s = 0.0;
  double serverless_actor_cost = 0.0;
  double wasted_actor_s = 0.0;
  const double fleet_price_per_s = cluster_hourly_price(cfg.cluster) / 3600.0;
  const double gpu_price_per_s = gpu_vm_hourly_price(cfg.cluster) / 3600.0;
  const std::size_t actor_slots =
      std::max<std::size_t>(1, cfg.cluster.actor_slots());

  Tensor probe_obs;
  for (std::size_t round = 1; round <= cfg.rounds; ++round) {
    // ---- actor phase (barrier): waves of parallel sampling -----------------
    // Each actor owns its env + RNG stream, so the bodies are independent;
    // joining in actor order keeps everything downstream serial-identical.
    std::vector<rl::SampleBatch> batches(cfg.num_actors);
    {
      std::vector<sim::Driver::Job> jobs;
      jobs.reserve(cfg.num_actors);
      for (std::size_t i = 0; i < cfg.num_actors; ++i)
        jobs.push_back(driver->submit([&, i] {
          auto ctx = ctx_pool.lease();
          ctx->model.set_flat_params(params);
          batches[i] = actors[i]->sample(ctx->model, ctx->vec_scratch,
                                         cfg.horizon, round);
        }));
      for (const auto& job : jobs) sim::Driver::join(job);
    }
    const std::size_t waves =
        (cfg.num_actors + actor_slots - 1) / actor_slots;
    double actor_phase_s = 0.0;
    const double actor_wasted_before = fstats.wasted_seconds;
    for (std::size_t w = 0; w < waves; ++w) {
      double wave_max = 0.0;
      const std::size_t in_wave =
          std::min(actor_slots, cfg.num_actors - w * actor_slots);
      for (std::size_t i = 0; i < in_wave; ++i)
        wave_max = std::max(
            wave_max,
            faulted_duration(cfg.latency.jittered(
                cfg.latency.actor_sample_s(cfg.horizon * cfg.envs_per_actor,
                                           env_spec.obs.image),
                rng)));
      actor_phase_s += wave_max;
    }
    wasted_actor_s += fstats.wasted_seconds - actor_wasted_before;

    // ---- learner phase: shard batches across sync learners ------------------
    // Bodies fill per-learner slots; the duration draws (rng / fault_rng)
    // run strictly after ALL joins, in learner order — the exact draw
    // sequence of the serial loop.
    std::vector<core::LearnerUpdate> updates(n_learners);
    std::vector<std::size_t> shard_steps(n_learners, 0);
    {
      std::vector<sim::Driver::Job> jobs(n_learners);
      for (std::size_t l = 0; l < n_learners; ++l) {
        const bool has_work = l < batches.size();
        if (!has_work) continue;
        jobs[l] = driver->submit([&, l] {
          auto ctx = ctx_pool.lease();
          std::vector<rl::SampleBatch> shard;
          for (std::size_t i = l; i < batches.size(); i += n_learners)
            shard.push_back(batches[i]);
          rl::SampleBatch merged = shard.size() == 1
                                       ? std::move(shard.front())
                                       : rl::SampleBatch::concat(shard);
          shard_steps[l] = merged.size();
          if (cfg.algorithm == core::Algorithm::kImpact)
            ctx->target.set_flat_params(target_params);
          updates[l] = core::compute_learner_update(cfg, ctx->model,
                                                    ctx->target, params,
                                                    merged);
        });
      }
      for (const auto& job : jobs)
        if (job) sim::Driver::join(job);
    }
    std::vector<std::vector<float>> deltas;
    rl::LossStats last_stats;
    double learner_phase_s = 0.0;
    for (std::size_t l = 0; l < n_learners; ++l) {
      if (shard_steps[l] == 0) continue;
      last_stats = updates[l].stats;
      deltas.push_back(std::move(updates[l].delta));
      learner_phase_s = std::max(
          learner_phase_s,
          faulted_duration(cfg.latency.jittered(
              cfg.latency.learner_compute_s(
                  shard_steps[l], params.size(),
                  cfg.cluster.per_slot_tflops()) *
                  static_cast<double>(updates[l].epochs_run),
              rng)));
    }
    // Synchronous allreduce of the deltas.
    const double allreduce_s =
        cfg.latency.aggregate_s(deltas.size(), params.size());
    STELLARIS_CHECK_MSG(!deltas.empty(), "no learner produced an update");
    const std::vector<float> before = params;
    const double inv = 1.0 / static_cast<double>(deltas.size());
    for (const auto& d : deltas)
      for (std::size_t i = 0; i < params.size(); ++i)
        params[i] -= static_cast<float>(inv) * d[i];
    const auto [ls_off, ls_len] = canonical->log_std_span();
    for (std::size_t i = 0; i < ls_len; ++i)
      params[ls_off + i] = std::clamp(params[ls_off + i], -2.5f, 0.0f);

    if (cfg.algorithm == core::Algorithm::kImpact &&
        ++updates_since_target >= cfg.impact.target_update_freq) {
      target_params = params;
      updates_since_target = 0;
    }

    const double round_s = actor_phase_s + learner_phase_s + allreduce_s;
    if (auto* tr = obs::trace()) {
      const double t_actors = clock_s;
      const double t_learners = t_actors + actor_phase_s;
      const double t_allreduce = t_learners + learner_phase_s;
      tr->complete(tr->track(trace_tag + "/sync/actors"), "actor_wave",
                   "sync", t_actors, t_learners, {{"round", round}});
      tr->complete(tr->track(trace_tag + "/sync/learners"),
                   "learner_compute", "sync", t_learners, t_allreduce,
                   {{"round", round}, {"learners", deltas.size()}});
      tr->complete(tr->track(trace_tag + "/sync/allreduce"), "allreduce",
                   "sync", t_allreduce, clock_s + round_s, {{"round", round}});
    }
    clock_s += round_s;

    // Serverless actor billing for MinionsRL: busy seconds only.
    if (minions)
      serverless_actor_cost += cfg.cluster.actor_unit_price() *
                               actor_phase_s *
                               static_cast<double>(std::min(
                                   cfg.num_actors, actor_slots));

    // ---- telemetry -----------------------------------------------------------
    if (!batches.empty() && probe_obs.empty())
      probe_obs = core::probe_rows(batches.front().obs);
    double round_kl = 0.0;
    if (!probe_obs.empty())
      round_kl = core::policy_update_kl(*probe_model, before, params,
                                        probe_obs);
    result.update_kls.push_back(round_kl);

    core::RoundRecord rec;
    rec.round = round;
    rec.time_s = clock_s;
    rec.mean_staleness = 0.0;  // synchronous by construction
    rec.staleness_threshold = 0.0;
    rec.group_size = deltas.size();
    rec.kl = round_kl;
    rec.learner_kl = last_stats.kl;
    rec.learner_ratio = last_stats.mean_ratio;
    rec.value_loss = last_stats.value_loss;
    rec.entropy = last_stats.entropy;
    const double serverful_cost =
        minions ? gpu_price_per_s * clock_s + serverless_actor_cost
                : fleet_price_per_s * clock_s;
    rec.cost_so_far_usd = serverful_cost;
    rec.learner_invocations = round * n_learners;
    const bool last = round == cfg.rounds;
    if (last || round % cfg.eval_interval == 0) {
      canonical->set_flat_params(params);
      rec.reward = rl::evaluate_policy(*eval_env, *canonical,
                                       cfg.eval_episodes,
                                       cfg.seed * 104729 + round);
      rec.evaluated = true;
    }
    m_rounds.add();
    if (rec.evaluated) m_round_reward.set(rec.reward);
    result.rounds.push_back(rec);
  }

  // ---- finalize ---------------------------------------------------------------
  result.total_time_s = clock_s;
  if (minions) {
    result.actor_cost_usd = serverless_actor_cost;
    result.learner_cost_usd = gpu_price_per_s * clock_s;
  } else {
    // Split the serverful bill by GPU vs CPU VM shares for the Fig. 8 bars.
    result.learner_cost_usd = gpu_price_per_s * clock_s;
    result.actor_cost_usd =
        (fleet_price_per_s - gpu_price_per_s) * clock_s;
  }
  result.total_cost_usd = result.learner_cost_usd + result.actor_cost_usd;
  result.learner_invocations = cfg.rounds * n_learners;
  // Wasted cost: the serverful fleet bills by wall-clock whether work
  // succeeds or not, so its waste already shows up as inflated total time
  // and cost; only the MinionsRL variant's serverless actors bill per busy
  // second, so their failed seconds are separable.
  if (minions)
    fstats.wasted_cost_usd = cfg.cluster.actor_unit_price() * wasted_actor_s;
  result.faults = fstats;
  result.summarize_rewards();
  return result;
}

}  // namespace stellaris::baselines
