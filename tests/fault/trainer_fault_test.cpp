// End-to-end fault tolerance of the training loops: runs complete under
// injected failures, replay deterministically for a fixed (plan, seed), and
// a zero-fault plan leaves results bit-identical to a plan-free run.
#include <gtest/gtest.h>

#include <map>

#include "baselines/sync_trainer.hpp"
#include "core/stellaris_trainer.hpp"
#include "obs/obs.hpp"
#include "util/mini_json.hpp"

namespace stellaris::core {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.env_name = "Hopper";
  cfg.rounds = 8;
  cfg.num_actors = 4;
  cfg.horizon = 32;
  cfg.trajs_per_learner = 2;
  cfg.network_width = 8;
  cfg.eval_episodes = 1;
  cfg.seed = 7;
  return cfg;
}

TrainConfig faulty_config(double crash_prob = 0.15) {
  auto cfg = tiny_config();
  cfg.faults.config.crash_prob = crash_prob;
  cfg.faults.config.straggler_prob = 0.1;
  cfg.faults.config.straggler_mult = 3.0;
  return cfg;
}

void expect_identical(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].time_s, b.rounds[i].time_s);
    EXPECT_DOUBLE_EQ(a.rounds[i].reward, b.rounds[i].reward);
    EXPECT_EQ(a.rounds[i].group_size, b.rounds[i].group_size);
  }
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(TrainerFault, ZeroFaultPlanIsBitIdenticalToNoPlan) {
  // Explicitly-zero fault knobs must not perturb a single RNG stream.
  auto with_plan = tiny_config();
  with_plan.faults.config.seed = 123;  // seed alone must not matter
  expect_identical(run_training(tiny_config()), run_training(with_plan));
}

TEST(TrainerFault, FaultedRunCompletesAllRounds) {
  const auto result = run_training(faulty_config());
  EXPECT_EQ(result.rounds.size(), 8u);
  EXPECT_GT(result.faults.crashes + result.faults.stragglers, 0u);
  EXPECT_EQ(result.faults.failed_invocations, result.faults.crashes);
  EXPECT_GT(result.faults.retries, 0u);
  EXPECT_GT(result.faults.wasted_seconds, 0.0);
  EXPECT_GT(result.faults.checkpoints, 0u);  // periodic checkpointing is on
}

TEST(TrainerFault, SamePlanSameSeedReplaysIdentically) {
  const auto a = run_training(faulty_config());
  const auto b = run_training(faulty_config());
  expect_identical(a, b);
  EXPECT_EQ(a.faults.crashes, b.faults.crashes);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
  EXPECT_DOUBLE_EQ(a.faults.wasted_cost_usd, b.faults.wasted_cost_usd);
}

TEST(TrainerFault, DifferentFaultSeedsDiverge) {
  auto a_cfg = faulty_config(0.3);
  auto b_cfg = faulty_config(0.3);
  b_cfg.faults.config.seed = a_cfg.faults.config.seed + 1;
  const auto a = run_training(a_cfg);
  const auto b = run_training(b_cfg);
  EXPECT_NE(a.total_time_s, b.total_time_s);
}

TEST(TrainerFault, FaultsCostTimeAndMoney) {
  const auto clean = run_training(tiny_config());
  const auto faulty = run_training(faulty_config(0.25));
  EXPECT_GT(faulty.total_time_s, clean.total_time_s);
  EXPECT_GT(faulty.faults.wasted_cost_usd, 0.0);
  // Learning still happens: all rounds complete with real updates.
  EXPECT_EQ(faulty.rounds.size(), clean.rounds.size());
}

TEST(TrainerFault, ScriptedReclaimIsSurvived) {
  auto cfg = tiny_config();
  cfg.faults.schedule.push_back(
      {0.2, fault::FaultKind::kVmReclaim, -1, 0.0});
  const auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), 8u);
  EXPECT_EQ(result.faults.vm_reclaims, 1u);
  EXPECT_GT(result.faults.failed_invocations, 0u);  // killed in-flight work
}

TEST(TrainerFault, ParameterFunctionCrashRestoresFromCheckpoint) {
  // Script a crash trap aimed solely at the parameter function, with
  // retries disabled, so the recovery path (checkpoint restore) must run.
  auto cfg = tiny_config();
  cfg.retry.max_retries = 0;
  cfg.checkpoint_interval = 1;
  cfg.faults.schedule.push_back(
      {0.2, fault::FaultKind::kCrash,
       int(serverless::FnKind::kParameter), 0.5});
  const auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), 8u);
  EXPECT_EQ(result.faults.giveups, 1u);
  EXPECT_EQ(result.faults.restores, 1u);
  EXPECT_GT(result.faults.checkpoints, 0u);
}

// Every cache entry the trainer publishes is erased under the key it was
// put under: a merged learner erases its trajectories, and a settled
// aggregation erases its group's gradients, applied or dropped on restore.
// Stragglers make learners settle out of launch order, and with no retries
// some learners give up and some aggregations drop their group, so a skew
// between the put and erase keys would leave gradient entries behind.
TEST(TrainerFault, EraseCountMatchesMergedTrajectoriesAndSettledGradients) {
  auto cfg = faulty_config();
  cfg.retry.max_retries = 0;
  cfg.checkpoint_interval = 1;
  cfg.faults.schedule.push_back(
      {0.2, fault::FaultKind::kCrash,
       int(serverless::FnKind::kParameter), 0.5});
  obs::LedgerRecorder ledger;
  obs::install_ledger(&ledger);
  const obs::Counter& erases = obs::metrics().counter("cache.erases");
  const std::uint64_t erases_before = erases.value();
  const auto result = run_training(cfg);
  const std::uint64_t erased = erases.value() - erases_before;
  obs::install_ledger(nullptr);

  std::map<std::uint64_t, std::size_t> claimed;  // learner_id -> trajs
  std::size_t merged_trajs = 0, grads = 0, settled_grads = 0;
  for (const auto& line : ledger.lines()) {
    const minijson::Value v = minijson::parse(line);
    const std::string& ev = v.at("ev").str;
    if (ev == "learner_claim") {
      claimed[std::uint64_t(v.at("learner_id").number())] =
          v.at("trajs").arr.size();
    } else if (ev == "grad") {
      ++grads;
      merged_trajs += claimed.at(std::uint64_t(v.at("learner_id").number()));
    } else if (ev == "agg_end") {
      settled_grads += std::size_t(v.at("group_size").number());
    } else if (ev == "restore") {
      settled_grads += std::size_t(v.at("dropped").number());
    }
  }
  EXPECT_GT(result.faults.giveups, result.faults.restores);
  EXPECT_GT(result.faults.restores, 0u);
  EXPECT_GE(grads, settled_grads);
  EXPECT_EQ(erased, merged_trajs + settled_grads);
}

TEST(SyncTrainerFault, BarrierStallsUnderFaults) {
  baselines::SyncConfig clean_cfg;
  clean_cfg.base = tiny_config();
  clean_cfg.num_learners = 2;
  baselines::SyncConfig faulty_cfg = clean_cfg;
  faulty_cfg.base.faults.config.crash_prob = 0.2;

  const auto clean = baselines::run_sync_training(clean_cfg);
  const auto faulty = baselines::run_sync_training(faulty_cfg);
  // Same learning trajectory (the numerics are fault-independent)...
  ASSERT_EQ(clean.rounds.size(), faulty.rounds.size());
  EXPECT_DOUBLE_EQ(clean.rounds.back().reward, faulty.rounds.back().reward);
  // ...but every barrier waits out its slowest retry chain and the fleet
  // bills for the stall.
  EXPECT_GT(faulty.total_time_s, clean.total_time_s);
  EXPECT_GT(faulty.total_cost_usd, clean.total_cost_usd);
  EXPECT_GT(faulty.faults.retries, 0u);
  EXPECT_GT(faulty.faults.wasted_seconds, 0.0);
}

TEST(SyncTrainerFault, FaultedSyncRunIsDeterministic) {
  baselines::SyncConfig cfg;
  cfg.base = tiny_config();
  cfg.base.faults.config.crash_prob = 0.2;
  cfg.num_learners = 2;
  const auto a = baselines::run_sync_training(cfg);
  const auto b = baselines::run_sync_training(cfg);
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
  EXPECT_EQ(a.faults.retries, b.faults.retries);
}

}  // namespace
}  // namespace stellaris::core
