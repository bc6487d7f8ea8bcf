#include "workloads.hpp"

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "envs/env.hpp"
#include "serverless/cost_meter.hpp"

namespace stellaris::e2e {
namespace {

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// FNV-1a over the bit patterns of the values fed to it.
class Digest {
 public:
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t train_digest(const core::TrainResult& r) {
  Digest d;
  for (const auto& rec : r.rounds) {
    d.add(rec.time_s).add(rec.kl).add(rec.mean_staleness)
        .add(static_cast<std::uint64_t>(rec.group_size))
        .add(rec.cost_so_far_usd);
    if (rec.evaluated) d.add(rec.reward);
  }
  d.add(r.total_time_s).add(r.total_cost_usd).add(r.final_reward)
      .add(r.best_reward).add(r.learner_invocations).add(r.cold_starts)
      .add(r.faults.failed_invocations).add(r.faults.retries)
      .add(r.faults.checkpoints).add(r.faults.restores);
  return d.value();
}

std::uint64_t serve_digest(const serve::ServeResult& r) {
  Digest d;
  d.add(r.duration_s).add(r.cost_usd).add(r.issued).add(r.completed)
      .add(r.failed).add(r.rejected);
  for (const auto& t : r.tenants)
    d.add(t.value_checksum).add(t.latency_sum_s).add(t.p50_s).add(t.p99_s)
        .add(t.p999_s).add(t.batches);
  return d.value();
}

void check_train(const core::TrainConfig& cfg, Rep& rep) {
  const core::TrainResult& r = *rep.train;
  auto fail = [&](std::string what) { rep.violations.push_back(std::move(what)); };
  if (r.rounds.size() != cfg.rounds)
    fail("completed " + std::to_string(r.rounds.size()) + " of " +
         std::to_string(cfg.rounds) + " rounds");
  // The trainer's parameters are private; the probe KL of every update is
  // a function of them, so a NaN or infinite parameter shows up there.
  for (const auto& rec : r.rounds) {
    if (rec.evaluated && !std::isfinite(rec.reward)) fail("non-finite reward");
    if (!std::isfinite(rec.kl) || !std::isfinite(rec.learner_kl))
      fail("non-finite update KL (non-finite parameters)");
  }
  if (!std::isfinite(r.final_reward)) fail("non-finite final reward");
  const double parts =
      r.learner_cost_usd + r.actor_cost_usd + r.parameter_cost_usd;
  if (std::abs(r.total_cost_usd - parts) > 1e-9 * std::max(1.0, parts))
    fail("total cost != learner + actor + parameter cost");
  // Every scripted parameter-function failure (1 + max_retries crash traps)
  // must have been reached and recovered from a checkpoint.
  const std::size_t forced =
      cfg.faults.schedule.size() / (cfg.retry.max_retries + 1);
  if (r.faults.restores < forced)
    fail(std::to_string(r.faults.restores) + " checkpoint restores, " +
         std::to_string(forced) + " scripted");
}

void check_serve(Rep& rep) {
  const serve::ServeResult& r = *rep.serve;
  auto fail = [&](std::string what) { rep.violations.push_back(std::move(what)); };
  if (r.completed + r.failed + r.rejected != r.issued)
    fail("completed + failed + rejected != issued");
  if (r.requests_per_hour < 1e6) fail("fewer than 1M requests per simulated hour");
  for (const auto& t : r.tenants)
    if (!std::isfinite(t.p99_s) || !std::isfinite(t.value_checksum))
      fail("non-finite latency or value for tenant " + t.name);
}

void publish_policies(serve::ServeEngine& eng, const serve::ServeConfig& cfg) {
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    eng.publish_policy(t, serve::make_policy_params(cfg.tenants[t], 100 + t),
                       cfg.tenants[t].initial_version);
}

serve::TenantConfig tenant(const std::string& name, bool discrete,
                           double rate, double duration_s) {
  serve::TenantConfig t;
  t.name = name;
  t.discrete = discrete;
  t.obs_dim = discrete ? 12 : 8;
  t.act_dim = discrete ? 6 : 3;
  t.hidden = 16;
  t.batch.max_batch = 32;
  t.batch.max_wait_s = 0.002;
  t.traffic.rate_per_s = rate;
  t.traffic.duration_s = duration_s;
  return t;
}

/// The figure benches' reduced-scale base config (bench/common.hpp's
/// base_config), copied so that the workloads stay fixed when the figures'
/// shared settings change.
core::TrainConfig base_config(const std::string& env, std::size_t rounds,
                              std::uint64_t seed) {
  core::TrainConfig cfg;
  cfg.env_name = env;
  cfg.rounds = rounds;
  cfg.seed = seed;
  cfg.cluster = serverless::ClusterSpec::regular_small();
  const bool atari = envs::env_spec(env).obs.image;
  cfg.num_actors = atari ? 4 : 8;
  cfg.horizon = atari ? 96 : 128;
  cfg.trajs_per_learner = atari ? 2 : 4;
  cfg.eval_episodes = 3;
  return cfg;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"hopper_async", false, 1},
      {"arcade_impact_par", false, 1},
      {"hopper_faulty", false, 1},
      {"serve_steady", true, 42},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::size_t parallel_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 3 : (hw >= 2 ? hw - 1 : 1);
}

core::TrainConfig train_config(const Workload& w, std::uint64_t seed,
                               Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  if (w.name == "arcade_impact_par") {
    auto cfg = base_config("SpaceInvaders", smoke ? 1 : 2, seed);
    cfg.algorithm = core::Algorithm::kImpact;
    cfg.envs_per_actor = 4;
    cfg.driver = sim::DriverKind::kConcurrent;
    cfg.driver_threads = parallel_workers();
    // One full-length learner update alone takes ~0.5 s; the smoke size
    // shortens the trajectories instead of the (already single) round.
    if (smoke) cfg.horizon = 24;
    return cfg;
  }
  if (w.name == "hopper_faulty") {
    // fig_faults' rate-0.1 plan, with a checkpoint every 10 updates. The
    // smoke size is the full one: a shorter run ends before the scripted
    // failure below.
    auto cfg = base_config("Hopper", 20, seed);
    cfg.faults.config.crash_prob = 0.1;
    cfg.faults.config.straggler_prob = 0.05;
    cfg.faults.config.straggler_mult = 4.0;
    cfg.faults.config.reclaim_rate_per_hour = 30.0;
    cfg.retry.max_retries = 3;
    cfg.retry.base_backoff_s = 0.05;
    cfg.checkpoint_interval = 10;
    // At crash 0.1 an aggregation outlives all 1 + 3 attempts about once in
    // 10^4, so the plan alone almost never restores from a checkpoint. So
    // 1 + max_retries one-shot crash traps on the parameter function, armed
    // at 2.0 virtual seconds, defeat the retries of the first aggregation
    // after it and force a restore. Over 164 seeds the version-10
    // checkpoint was written by 1.1-2.8 s and the 20 rounds ended at
    // 3.2-8.1 s, so every repetition reaches the traps.
    for (std::size_t a = 0; a <= cfg.retry.max_retries; ++a)
      cfg.faults.schedule.push_back(
          {2.0, fault::FaultKind::kCrash,
           static_cast<int>(serverless::FnKind::kParameter), 0.5});
    return cfg;
  }
  return base_config("Hopper", smoke ? 8 : 32, seed);
}

serve::ServeConfig serve_config(std::uint64_t seed, Scale scale) {
  // fig_serve's steady_2tenant: open-loop Poisson arrivals, a 900/s burst on
  // the walker tenant over [1/3, 1/2] of the run.
  const double duration_s = scale == Scale::kSmoke ? 200.0 : 450.0;
  auto walker = tenant("walker", false, 250.0, duration_s);
  walker.traffic.burst_rate_per_s = 900.0;
  walker.traffic.burst_start_s = duration_s / 3.0;
  walker.traffic.burst_end_s = duration_s / 2.0;
  serve::ServeConfig cfg;
  cfg.tenants = {walker, tenant("arcade", true, 150.0, duration_s)};
  cfg.worker_capacity = 16;
  cfg.autoscale.max_workers = 8;
  cfg.autoscale.queue_per_worker = 32.0;
  cfg.autoscale.eval_period_s = 0.25;
  cfg.seed = seed;
  return cfg;
}

std::size_t busy_threads(const Workload& w) {
  auto threads = [](sim::DriverKind kind, std::size_t workers) -> std::size_t {
    return kind == sim::DriverKind::kConcurrent ? 1 + workers : 1;
  };
  if (w.serve) {
    const auto cfg = serve_config(w.default_seed, Scale::kBench);
    return threads(cfg.driver, cfg.driver_threads);
  }
  const auto cfg = train_config(w, w.default_seed, Scale::kBench);
  return threads(cfg.driver, cfg.driver_threads);
}

std::uint64_t rep_seed(std::uint64_t seed, std::size_t i) {
  return seed + 7919 * static_cast<std::uint64_t>(i);
}

Rep run_rep(const Workload& w, std::uint64_t seed, Scale scale,
            std::optional<DriverChoice> driver) {
  Rep rep;
  double t0 = wall_seconds();
  if (w.serve) {
    auto cfg = serve_config(seed, scale);
    if (driver) {
      cfg.driver = driver->kind;
      cfg.driver_threads = driver->threads;
    }
    serve::ServeEngine eng(cfg);
    publish_policies(eng, cfg);
    rep.setup_s = wall_seconds() - t0;
    const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    const double eng0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
    t0 = wall_seconds();
    rep.serve = eng.run();
    rep.run_s = wall_seconds() - t0;
    rep.engine_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - eng0;
    rep.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    const auto& r = *rep.serve;
    rep.items = static_cast<double>(r.completed);
    rep.sim_s = r.duration_s;
    rep.attempted = r.issued;
    rep.failed = r.failed + r.rejected;
    rep.digest = serve_digest(r);
    check_serve(rep);
    return rep;
  }
  auto cfg = train_config(w, seed, scale);
  if (driver) {
    cfg.driver = driver->kind;
    cfg.driver_threads = driver->threads;
  }
  core::StellarisTrainer trainer(cfg);
  rep.setup_s = wall_seconds() - t0;
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double eng0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  t0 = wall_seconds();
  rep.train = trainer.train();
  rep.run_s = wall_seconds() - t0;
  rep.engine_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - eng0;
  rep.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  const auto& r = *rep.train;
  std::uint64_t gradients = 0;
  for (const auto& rec : r.rounds) gradients += rec.group_size;
  rep.items = static_cast<double>(gradients * cfg.trajs_per_learner *
                                  cfg.horizon * cfg.envs_per_actor);
  rep.sim_s = r.total_time_s;
  rep.attempted = cfg.rounds;
  rep.failed = cfg.rounds - std::min(cfg.rounds, r.rounds.size());
  rep.checkpoints = r.faults.checkpoints;
  rep.restores = r.faults.restores;
  rep.digest = train_digest(r);
  check_train(cfg, rep);
  return rep;
}

}  // namespace stellaris::e2e
