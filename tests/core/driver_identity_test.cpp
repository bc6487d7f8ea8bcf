// Cross-driver bit-identity gate (DESIGN.md §14).
//
// The execution driver decides WHERE invocation bodies compute; the event
// engine alone decides WHEN their outputs merge. By construction, then, a
// run's results, causal ledger, time series, and simulation metrics must be
// byte-identical under --driver=virtual and --driver=concurrent — at any
// thread count. This test enforces the contract on a small fig06-style
// config, clean and under fault injection, for the async trainer and the
// sync baseline.
//
// Excluded from the metric comparison (and ONLY these): real-time debug
// metrics (`_real_` in the name) and execution-substrate diagnostics
// (`kernel.*`, `tensor.*`) — allocation warm-up and parallel-dispatch
// counts depend on worker-context pool sizing and the kernel thread clamp,
// not on anything results are derived from.
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/sync_trainer.hpp"
#include "core/stellaris_trainer.hpp"
#include "obs/obs.hpp"

namespace stellaris::core {
namespace {

TrainConfig small_config() {
  TrainConfig cfg;
  cfg.env_name = "Hopper";
  cfg.rounds = 6;
  cfg.num_actors = 4;
  cfg.horizon = 32;
  cfg.trajs_per_learner = 2;
  cfg.network_width = 8;
  cfg.eval_episodes = 1;
  cfg.seed = 7;
  return cfg;
}

TrainConfig faulty_config() {
  auto cfg = small_config();
  cfg.faults.config.crash_prob = 0.15;
  cfg.faults.config.straggler_prob = 0.1;
  cfg.faults.config.straggler_mult = 3.0;
  // A scripted reclaim kills in-flight invocations mid-run: their bodies
  // are abandoned, and abandoning must not perturb anything observable.
  cfg.faults.schedule.push_back({0.2, fault::FaultKind::kVmReclaim, -1, 0.0});
  return cfg;
}

/// Everything one run observably produces, captured for comparison.
struct Capture {
  TrainResult result;
  std::vector<std::string> ledger;
  std::string timeseries_json;
  std::vector<std::string> metrics_csv;  ///< filtered rows
};

std::vector<std::string> filtered_metrics() {
  std::ostringstream os;
  obs::metrics().write_csv(os);
  std::vector<std::string> rows;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("_real_") != std::string::npos) continue;
    if (line.find(",kernel.") != std::string::npos) continue;
    if (line.find(",tensor.") != std::string::npos) continue;
    rows.push_back(line);
  }
  return rows;
}

template <typename RunFn>
Capture run_captured(RunFn run) {
  Capture cap;
  obs::metrics().reset();
  obs::LedgerRecorder led;
  obs::TimeSeriesRecorder ts(1.0);
  obs::install_ledger(&led);
  obs::install_timeseries(&ts);
  cap.result = run();
  obs::install_ledger(nullptr);
  obs::install_timeseries(nullptr);
  cap.ledger = led.lines();
  std::ostringstream os;
  ts.write_json(os);
  cap.timeseries_json = os.str();
  cap.metrics_csv = filtered_metrics();
  return cap;
}

Capture run_async(TrainConfig cfg, sim::DriverKind kind,
                  std::size_t threads) {
  cfg.driver = kind;
  cfg.driver_threads = threads;
  return run_captured([&] { return run_training(cfg); });
}

Capture run_sync(TrainConfig base, sim::DriverKind kind,
                 std::size_t threads) {
  base.driver = kind;
  base.driver_threads = threads;
  baselines::SyncConfig cfg;
  cfg.base = base;
  cfg.variant = baselines::SyncVariant::kVanillaPpo;
  cfg.num_learners = 2;
  return run_captured([&] { return baselines::run_sync_training(cfg); });
}

void expect_bits(double a, double b, const std::string& what) {
  // Bit-identity: exact equality, no tolerance.
  EXPECT_EQ(a, b) << what;
}

void expect_identical_results(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    const auto& ra = a.rounds[i];
    const auto& rb = b.rounds[i];
    const std::string p = "round " + std::to_string(i) + ": ";
    EXPECT_EQ(ra.round, rb.round) << p;
    expect_bits(ra.time_s, rb.time_s, p + "time_s");
    EXPECT_EQ(ra.evaluated, rb.evaluated) << p;
    if (ra.evaluated) expect_bits(ra.reward, rb.reward, p + "reward");
    expect_bits(ra.mean_staleness, rb.mean_staleness, p + "mean_staleness");
    EXPECT_EQ(ra.group_size, rb.group_size) << p;
    expect_bits(ra.kl, rb.kl, p + "kl");
    expect_bits(ra.learner_kl, rb.learner_kl, p + "learner_kl");
    expect_bits(ra.value_loss, rb.value_loss, p + "value_loss");
    expect_bits(ra.entropy, rb.entropy, p + "entropy");
    expect_bits(ra.cost_so_far_usd, rb.cost_so_far_usd, p + "cost");
    EXPECT_EQ(ra.learner_invocations, rb.learner_invocations) << p;
  }
  EXPECT_EQ(a.staleness_samples, b.staleness_samples);
  EXPECT_EQ(a.update_kls, b.update_kls);
  expect_bits(a.total_time_s, b.total_time_s, "total_time_s");
  expect_bits(a.total_cost_usd, b.total_cost_usd, "total_cost_usd");
  expect_bits(a.learner_cost_usd, b.learner_cost_usd, "learner_cost_usd");
  expect_bits(a.actor_cost_usd, b.actor_cost_usd, "actor_cost_usd");
  expect_bits(a.final_reward, b.final_reward, "final_reward");
  expect_bits(a.best_reward, b.best_reward, "best_reward");
  expect_bits(a.gpu_utilization, b.gpu_utilization, "gpu_utilization");
  expect_bits(a.learner_busy_s, b.learner_busy_s, "learner_busy_s");
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_EQ(a.warm_starts, b.warm_starts);
  EXPECT_EQ(a.learner_invocations, b.learner_invocations);
  expect_bits(a.delta_max, b.delta_max, "delta_max");
  expect_bits(a.breakdown.total(), b.breakdown.total(), "breakdown total");
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.vm_reclaims, b.faults.vm_reclaims);
  EXPECT_EQ(a.faults.stragglers, b.faults.stragglers);
  EXPECT_EQ(a.faults.failed_invocations, b.faults.failed_invocations);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_EQ(a.faults.giveups, b.faults.giveups);
  EXPECT_EQ(a.faults.checkpoints, b.faults.checkpoints);
  EXPECT_EQ(a.faults.restores, b.faults.restores);
  expect_bits(a.faults.wasted_cost_usd, b.faults.wasted_cost_usd,
              "wasted_cost_usd");
  expect_bits(a.faults.retry_wait_s, b.faults.retry_wait_s, "retry_wait_s");
}

/// Ledger events carry the process-global run id (obs::begin_run() counts
/// every run in this test binary), which legitimately differs between the
/// two runs under comparison. Mask that one field; everything else —
/// every timestamp, cost, id, and staleness value — must match exactly.
std::string mask_run_id(const std::string& line) {
  const std::string key = "\"run\":";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return line;
  auto end = pos + key.size();
  while (end < line.size() && std::isdigit(static_cast<unsigned char>(
                                  line[end])))
    ++end;
  // substr, not replace: GCC 12 reports a false -Wrestrict on replace here.
  return line.substr(0, pos + key.size()) + "N" + line.substr(end);
}

void expect_identical_ledgers(const std::vector<std::string>& a,
                              const std::vector<std::string>& b) {
  ASSERT_EQ(a.size(), b.size()) << "ledger event counts differ";
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(mask_run_id(a[i]), mask_run_id(b[i])) << "ledger line " << i;
}

void expect_identical_captures(const Capture& a, const Capture& b) {
  expect_identical_results(a.result, b.result);
  expect_identical_ledgers(a.ledger, b.ledger);
  EXPECT_EQ(a.timeseries_json, b.timeseries_json) << "time series diverged";
  ASSERT_EQ(a.metrics_csv.size(), b.metrics_csv.size())
      << "metric row counts differ";
  for (std::size_t i = 0; i < a.metrics_csv.size(); ++i)
    EXPECT_EQ(a.metrics_csv[i], b.metrics_csv[i]) << "metric row " << i;
}

TEST(DriverIdentity, CleanRunIsBitIdenticalAcrossDrivers) {
  const auto cfg = small_config();
  const auto virt = run_async(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_async(cfg, sim::DriverKind::kConcurrent, 4);
  expect_identical_captures(virt, conc);
  // And across thread counts of the concurrent driver itself.
  const auto conc1 = run_async(cfg, sim::DriverKind::kConcurrent, 1);
  expect_identical_captures(virt, conc1);
}

TEST(DriverIdentity, FaultyRunIsBitIdenticalAcrossDrivers) {
  const auto cfg = faulty_config();
  const auto virt = run_async(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_async(cfg, sim::DriverKind::kConcurrent, 4);
  // The fault plan must actually have fired for this to gate anything.
  EXPECT_GT(virt.result.faults.failed_invocations, 0u);
  expect_identical_captures(virt, conc);
}

TEST(DriverIdentity, VectorizedActorsAreBitIdenticalAcrossDrivers) {
  // envs_per_actor > 1: K-interleaved batches, per-env auto-reset seeds from
  // the invocation stream — the capture/body/merge contract must hold for
  // the vectorized rollout path too (DESIGN.md §17).
  auto cfg = small_config();
  cfg.envs_per_actor = 4;
  const auto virt = run_async(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_async(cfg, sim::DriverKind::kConcurrent, 4);
  expect_identical_captures(virt, conc);
  const auto conc2 = run_async(cfg, sim::DriverKind::kConcurrent, 2);
  expect_identical_captures(virt, conc2);
}

TEST(DriverIdentity, FaultyVectorizedActorsAreBitIdenticalAcrossDrivers) {
  // Retried invocations re-draw the whole K-env batch from the attempt's
  // keyed stream; abandoning a half-stepped batch must not leak state.
  auto cfg = faulty_config();
  cfg.envs_per_actor = 2;
  const auto virt = run_async(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_async(cfg, sim::DriverKind::kConcurrent, 4);
  EXPECT_GT(virt.result.faults.failed_invocations, 0u);
  expect_identical_captures(virt, conc);
}

TEST(DriverIdentity, SyncBaselineIsBitIdenticalAcrossDrivers) {
  const auto cfg = small_config();
  const auto virt = run_sync(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_sync(cfg, sim::DriverKind::kConcurrent, 4);
  expect_identical_captures(virt, conc);
}

TEST(DriverIdentity, FaultySyncBaselineIsBitIdenticalAcrossDrivers) {
  auto cfg = faulty_config();
  // The sync baseline replays faults analytically; the scripted reclaim
  // only applies to the platform path, probabilistic faults suffice here.
  cfg.faults.schedule.clear();
  const auto virt = run_sync(cfg, sim::DriverKind::kVirtual, 0);
  const auto conc = run_sync(cfg, sim::DriverKind::kConcurrent, 4);
  expect_identical_captures(virt, conc);
}

}  // namespace
}  // namespace stellaris::core
