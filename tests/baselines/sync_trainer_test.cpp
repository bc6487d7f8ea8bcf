#include "baselines/sync_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace stellaris::baselines {
namespace {

SyncConfig tiny_config(SyncVariant variant) {
  SyncConfig cfg;
  cfg.base.env_name = "Hopper";
  cfg.base.rounds = 6;
  cfg.base.num_actors = 4;
  cfg.base.horizon = 32;
  cfg.base.network_width = 8;
  cfg.base.eval_episodes = 1;
  cfg.base.seed = 11;
  cfg.variant = variant;
  cfg.num_learners = 2;
  return cfg;
}

class SyncVariants : public ::testing::TestWithParam<SyncVariant> {};

TEST_P(SyncVariants, RunsToCompletion) {
  auto result = run_sync_training(tiny_config(GetParam()));
  EXPECT_EQ(result.rounds.size(), 6u);
  EXPECT_GT(result.total_time_s, 0.0);
  EXPECT_GT(result.total_cost_usd, 0.0);
  EXPECT_TRUE(std::isfinite(result.final_reward));
  // Synchronous by construction: no staleness anywhere.
  for (const auto& r : result.rounds) EXPECT_EQ(r.mean_staleness, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, SyncVariants,
                         ::testing::Values(SyncVariant::kVanillaPpo,
                                           SyncVariant::kRllibLike,
                                           SyncVariant::kMinionsLike,
                                           SyncVariant::kParRl));

TEST(SyncTrainer, ServerfulBillingScalesWithWallClock) {
  auto cfg = tiny_config(SyncVariant::kVanillaPpo);
  auto short_run = run_sync_training(cfg);
  cfg.base.rounds = 12;
  auto long_run = run_sync_training(cfg);
  EXPECT_GT(long_run.total_time_s, short_run.total_time_s);
  EXPECT_GT(long_run.total_cost_usd, short_run.total_cost_usd);
  // Serverful: cost == fleet price × wall-clock (linear relation).
  EXPECT_NEAR(long_run.total_cost_usd / long_run.total_time_s,
              short_run.total_cost_usd / short_run.total_time_s, 1e-9);
}

TEST(SyncTrainer, MinionsUsesSingleCentralLearner) {
  auto cfg = tiny_config(SyncVariant::kMinionsLike);
  cfg.num_learners = 4;  // must be ignored
  auto result = run_sync_training(cfg);
  for (const auto& r : result.rounds) EXPECT_EQ(r.group_size, 1u);
}

TEST(SyncTrainer, MinionsActorBillingIsServerless) {
  // MinionsRL's actors bill busy-seconds, so its actor cost is far below
  // the serverful fleet bill for the same workload.
  auto serverful = run_sync_training(tiny_config(SyncVariant::kRllibLike));
  auto minions = run_sync_training(tiny_config(SyncVariant::kMinionsLike));
  EXPECT_LT(minions.actor_cost_usd, serverful.actor_cost_usd);
}

TEST(SyncTrainer, DeterministicPerSeed) {
  auto a = run_sync_training(tiny_config(SyncVariant::kVanillaPpo));
  auto b = run_sync_training(tiny_config(SyncVariant::kVanillaPpo));
  EXPECT_DOUBLE_EQ(a.total_time_s, b.total_time_s);
  EXPECT_DOUBLE_EQ(a.final_reward, b.final_reward);
}

TEST(SyncTrainer, ImpactVariantRuns) {
  auto cfg = tiny_config(SyncVariant::kVanillaPpo);
  cfg.base.algorithm = core::Algorithm::kImpact;
  auto result = run_sync_training(cfg);
  EXPECT_EQ(result.rounds.size(), 6u);
}

TEST(SyncTrainer, ParRlOnHpcCluster) {
  auto cfg = tiny_config(SyncVariant::kParRl);
  cfg.base.cluster = serverless::ClusterSpec::hpc();
  cfg.num_learners = 8;
  auto result = run_sync_training(cfg);
  EXPECT_EQ(result.rounds.size(), 6u);
  EXPECT_GT(result.total_cost_usd, 0.0);
}

TEST(SyncTrainer, MoreLearnersShrinkLearnerPhase) {
  auto cfg = tiny_config(SyncVariant::kRllibLike);
  cfg.base.num_actors = 8;
  cfg.num_learners = 1;
  auto one = run_sync_training(cfg);
  cfg.num_learners = 4;
  auto four = run_sync_training(cfg);
  EXPECT_LT(four.total_time_s, one.total_time_s);
}

}  // namespace
}  // namespace stellaris::baselines
