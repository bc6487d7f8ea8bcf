// ServeEngine end-to-end: batched inference over the virtual clock,
// cross-driver bit-identity, canary promote/rollback, admission under
// overload, queue-depth autoscaling, snapshot decode reuse, per-context
// policy load reuse, and the driver×kernel thread-budget clamp.
#include "serve/serve_engine.hpp"

#include <gtest/gtest.h>

#include "tensor/kernel_config.hpp"

namespace stellaris::serve {
namespace {

TenantConfig small_tenant(const std::string& name) {
  TenantConfig t;
  t.name = name;
  t.obs_dim = 8;
  t.act_dim = 3;
  t.hidden = 16;
  t.batch.max_batch = 16;
  t.batch.max_wait_s = 0.002;
  t.traffic.rate_per_s = 400.0;
  t.traffic.duration_s = 5.0;
  return t;
}

ServeConfig base_config() {
  ServeConfig cfg;
  cfg.tenants = {small_tenant("walker")};
  cfg.worker_capacity = 8;
  cfg.autoscale.max_workers = 4;
  cfg.autoscale.eval_period_s = 0.25;
  cfg.seed = 42;
  return cfg;
}

ServeResult run_scenario(const ServeConfig& cfg) {
  ServeEngine eng(cfg);
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    eng.publish_policy(
        t,
        make_policy_params(cfg.tenants[t],
                           cfg.seed ^ (0x5e4e + t)),
        cfg.tenants[t].initial_version);
  return eng.run();
}

TEST(ServeEngine, ServesOpenLoopTraffic) {
  const auto res = run_scenario(base_config());
  ASSERT_EQ(res.tenants.size(), 1u);
  const auto& tr = res.tenants[0];
  EXPECT_GT(tr.issued, 1500u);
  EXPECT_EQ(tr.completed, tr.issued);  // no faults, no overload
  EXPECT_EQ(tr.failed, 0u);
  EXPECT_EQ(tr.rejected, 0u);
  EXPECT_EQ(res.completed, tr.completed);
  // Dynamic batching actually batched (rate 400/s vs 2 ms cutoff).
  EXPECT_GT(tr.mean_batch, 1.2);
  // Quantiles are ordered and positive.
  EXPECT_GT(tr.p50_s, 0.0);
  EXPECT_LE(tr.p50_s, tr.p99_s);
  EXPECT_LE(tr.p99_s, tr.p999_s);
  EXPECT_GT(res.cost_usd, 0.0);
  EXPECT_EQ(res.wasted_cost_usd, 0.0);
  EXPECT_GT(res.requests_per_hour, 0.0);
  // Makespan: arrivals stop at 5 s and the tail drains quickly; dead timers
  // must not stretch virtual time.
  EXPECT_LT(res.duration_s, 6.0);
}

TEST(ServeEngine, SnapshotDecodedOncePerVersion) {
  const auto cfg = base_config();
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(cfg.tenants[0], 1), 1);
  const auto res = eng.run();
  ASSERT_GT(res.tenants[0].batches, 1u);
  // One published version -> one decode; every other batch reuses it.
  EXPECT_EQ(res.policy_decodes, 1u);
  EXPECT_EQ(res.policy_reuses, res.tenants[0].batches - 1);
}

TEST(ServeEngine, CrossDriverBitIdentity) {
  auto cfg = base_config();
  cfg.driver = sim::DriverKind::kVirtual;
  const auto virt = run_scenario(cfg);
  cfg.driver = sim::DriverKind::kConcurrent;
  cfg.driver_threads = 4;
  const auto conc = run_scenario(cfg);

  EXPECT_EQ(virt.completed, conc.completed);
  EXPECT_EQ(virt.issued, conc.issued);
  EXPECT_EQ(virt.duration_s, conc.duration_s);
  EXPECT_EQ(virt.cost_usd, conc.cost_usd);
  ASSERT_EQ(virt.tenants.size(), conc.tenants.size());
  for (std::size_t t = 0; t < virt.tenants.size(); ++t) {
    EXPECT_EQ(virt.tenants[t].value_checksum, conc.tenants[t].value_checksum);
    EXPECT_EQ(virt.tenants[t].latency_sum_s, conc.tenants[t].latency_sum_s);
    EXPECT_EQ(virt.tenants[t].p99_s, conc.tenants[t].p99_s);
    EXPECT_EQ(virt.tenants[t].batches, conc.tenants[t].batches);
  }
}

TEST(ServeEngine, RepublishedVersionReloads) {
  const auto cfg = base_config();
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(cfg.tenants[0], 1), 1);
  // Same version, new weights: a new snapshot, so the context must reload
  // even though the version number it holds is unchanged.
  eng.engine().schedule_at(2.5, [&] {
    eng.publish_policy(0, make_policy_params(cfg.tenants[0], 2), 1);
  });
  const auto res = eng.run();
  EXPECT_EQ(res.policy_decodes, 2u);
  EXPECT_EQ(res.model_loads, 2u);
}

TEST(ServeEngine, CanaryCrossDriverBitIdentity) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  // Keep the canary split for the whole run: nothing may promote or roll
  // back, so v1 and v2 batches interleave on the same contexts throughout.
  t.rollout.eval_period_s = 1.0;
  t.rollout.healthy_windows_to_promote = 1000;
  t.rollout.slo_p99_s = 1.0;
  t.rollout.max_value_drift = 1e9;
  const auto v1 = make_policy_params(t, 1);
  const auto v2 = make_policy_params(t, 2);
  ASSERT_NE(v1, v2);
  auto run = [&](sim::DriverKind kind, std::size_t threads) {
    cfg.driver = kind;
    cfg.driver_threads = threads;
    ServeEngine eng(cfg);
    eng.publish_policy(0, v1, 1);
    eng.publish_policy(0, v2, 2);
    eng.schedule_canary(0, 2, 0.5, 0.0);
    return eng.run();
  };
  const auto virt = run(sim::DriverKind::kVirtual, 0);
  const auto conc = run(sim::DriverKind::kConcurrent, 4);
  ASSERT_EQ(virt.tenants.size(), conc.tenants.size());
  for (std::size_t i = 0; i < virt.tenants.size(); ++i) {
    EXPECT_EQ(virt.tenants[i].value_checksum, conc.tenants[i].value_checksum);
    EXPECT_EQ(virt.tenants[i].latency_sum_s, conc.tenants[i].latency_sum_s);
    EXPECT_EQ(virt.tenants[i].p99_s, conc.tenants[i].p99_s);
  }
  EXPECT_EQ(virt.tenants[0].promotions + virt.tenants[0].rollbacks, 0u);
  // The one virtual context switches between v1 and v2 lanes: it reloads
  // more than once, but never more than once per batch.
  EXPECT_GT(virt.model_loads, cfg.tenants.size());
  EXPECT_LE(virt.model_loads, virt.tenants[0].batches);
}

TEST(ServeEngine, CanaryServesItsOwnWeights) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.rollout.eval_period_s = 1.0;
  t.rollout.min_window_requests = 20;
  t.rollout.slo_p99_s = 1.0;  // only value drift can trip
  ServeEngine eng(cfg);
  const auto v1 = make_policy_params(t, 1);
  // v2 is v1 with the value head's output bias (the last flat parameter)
  // raised by 5: only a context that really loads v2 sees the drift.
  auto v2 = v1;
  v2.back() += 5.0f;
  eng.publish_policy(0, v1, 1);
  eng.publish_policy(0, v2, 2);
  eng.schedule_canary(0, 2, 0.5, 0.5);
  const auto res = eng.run();
  EXPECT_EQ(res.tenants[0].rollbacks, 1u);
  EXPECT_EQ(res.tenants[0].final_stable_version, 1u);
}

TEST(ServeEngine, CanaryPromotesAfterHealthyWindows) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.duration_s = 12.0;
  t.rollout.eval_period_s = 1.0;
  t.rollout.min_window_requests = 20;
  t.rollout.healthy_windows_to_promote = 2;
  t.rollout.slo_p99_s = 1.0;          // loose: latency cannot breach
  t.rollout.max_value_drift = 1e9;    // drift cannot trip
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(t, 1), 1);
  eng.publish_policy(0, make_policy_params(t, 2), 2);
  eng.schedule_canary(0, 2, 0.3, 1.0);
  const auto res = eng.run();
  EXPECT_EQ(res.tenants[0].promotions, 1u);
  EXPECT_EQ(res.tenants[0].rollbacks, 0u);
  EXPECT_EQ(res.tenants[0].final_stable_version, 2u);
}

TEST(ServeEngine, CanaryRollsBackOnLatencySloBreach) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.duration_s = 12.0;
  t.rollout.eval_period_s = 1.0;
  t.rollout.min_window_requests = 20;
  t.rollout.slo_p99_s = 0.060;
  t.rollout.max_value_drift = 1e9;
  ServeEngine eng(cfg);
  eng.publish_policy(0, make_policy_params(t, 1), 1);
  // The canary is a much heavier model behind the same API: its serving
  // compute alone exceeds the p99 SLO, so the controller must roll back.
  eng.publish_policy(0, make_policy_params(t, 2), 2, /*cost_mult=*/50.0);
  eng.schedule_canary(0, 2, 0.3, 1.0);
  const auto res = eng.run();
  EXPECT_EQ(res.tenants[0].rollbacks, 1u);
  EXPECT_EQ(res.tenants[0].promotions, 0u);
  EXPECT_EQ(res.tenants[0].final_stable_version, 1u);
}

TEST(ServeEngine, AdmissionShedsOverload) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.rate_per_s = 5000.0;  // far beyond one worker's capacity
  t.traffic.duration_s = 3.0;
  t.admission.max_queue = 256;
  cfg.autoscale.min_workers = 1;
  cfg.autoscale.max_workers = 1;  // pin capacity so the queue must fill
  const auto res = run_scenario(cfg);
  const auto& tr = res.tenants[0];
  EXPECT_GT(tr.rejected, 0u);
  EXPECT_GT(tr.completed, 0u);
  // Conservation: every arrival is exactly one of rejected/completed/failed.
  EXPECT_EQ(tr.issued, tr.rejected + tr.completed + tr.failed);
  // The queue never exceeded the admission cap by construction; latency of
  // admitted requests stays bounded by (queue cap / service rate).
  EXPECT_LT(tr.p999_s, 3.0);
}

TEST(ServeEngine, AutoscalerAbsorbsBurst) {
  auto cfg = base_config();
  auto& t = cfg.tenants[0];
  t.traffic.rate_per_s = 100.0;
  t.traffic.burst_rate_per_s = 3000.0;
  t.traffic.burst_start_s = 2.0;
  t.traffic.burst_end_s = 4.0;
  t.traffic.duration_s = 8.0;
  cfg.autoscale.min_workers = 1;
  cfg.autoscale.max_workers = 6;
  cfg.autoscale.queue_per_worker = 16.0;
  cfg.autoscale.eval_period_s = 0.1;
  cfg.autoscale.scale_down_idle_evals = 4;
  const auto res = run_scenario(cfg);
  EXPECT_GT(res.peak_workers, 1u);
  EXPECT_GE(res.scale_ups, 1u);
  // The trailing edge scales back down after the burst drains.
  EXPECT_GE(res.scale_downs, 1u);
  EXPECT_EQ(res.completed + res.rejected + res.failed, res.issued);
}

TEST(ServeEngine, MultiTenantIsolatesStreams) {
  auto cfg = base_config();
  cfg.tenants.push_back(small_tenant("arcade"));
  cfg.tenants[1].obs_dim = 12;
  cfg.tenants[1].act_dim = 4;
  cfg.tenants[1].discrete = true;
  cfg.tenants[1].traffic.rate_per_s = 150.0;
  const auto res = run_scenario(cfg);
  ASSERT_EQ(res.tenants.size(), 2u);
  EXPECT_GT(res.tenants[0].completed, 0u);
  EXPECT_GT(res.tenants[1].completed, 0u);
  EXPECT_NE(res.tenants[0].value_checksum, res.tenants[1].value_checksum);
  // Virtual bodies run inline, so each tenant's pool holds one context: it
  // copies the tenant's only snapshot in once and reuses it every batch.
  EXPECT_GT(res.tenants[0].batches, 1u);
  EXPECT_GT(res.tenants[1].batches, 1u);
  EXPECT_EQ(res.model_loads, cfg.tenants.size());
}

TEST(ServeEngine, AppliesDriverThreadBudgetClamp) {
  const std::size_t saved = ops::kernel_threads();
  ops::set_kernel_threads(8);
  auto cfg = base_config();
  cfg.tenants[0].traffic.duration_s = 0.5;
  cfg.driver = sim::DriverKind::kConcurrent;
  cfg.driver_threads = 4;
  cfg.hardware_threads = 16;  // injected: 8 kernels × 4 bodies > 16 threads
  run_scenario(cfg);
  // The serving run clamps kernels to hardware / driver_threads = 4, same
  // as the trainer path (warn-once behavior covered in sim/driver_test).
  EXPECT_EQ(ops::kernel_threads(), 4u);
  ops::set_kernel_threads(saved);
}

}  // namespace
}  // namespace stellaris::serve
