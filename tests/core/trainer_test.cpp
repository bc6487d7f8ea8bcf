// End-to-end integration tests of the Stellaris training loop on tiny
// configurations: metric schema, staleness control, aggregation-mode
// variants, cost accounting, and run-level determinism.
#include "core/stellaris_trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace stellaris::core {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.env_name = "Hopper";
  cfg.rounds = 12;
  cfg.num_actors = 4;
  cfg.horizon = 32;
  cfg.trajs_per_learner = 2;
  cfg.network_width = 8;
  cfg.eval_episodes = 1;
  cfg.seed = 7;
  return cfg;
}

TEST(Trainer, CompletesRequestedRounds) {
  auto result = run_training(tiny_config());
  EXPECT_EQ(result.rounds.size(), 12u);
  EXPECT_GT(result.total_time_s, 0.0);
  EXPECT_GT(result.total_cost_usd, 0.0);
  EXPECT_GT(result.learner_invocations, 0u);
}

TEST(Trainer, RoundRecordsAreWellFormed) {
  auto result = run_training(tiny_config());
  double prev_time = 0.0, prev_cost = 0.0;
  for (const auto& r : result.rounds) {
    EXPECT_GE(r.time_s, prev_time);           // virtual time monotone
    EXPECT_GE(r.cost_so_far_usd, prev_cost);  // cost monotone
    EXPECT_GT(r.group_size, 0u);
    EXPECT_GE(r.mean_staleness, 0.0);
    prev_time = r.time_s;
    prev_cost = r.cost_so_far_usd;
  }
  EXPECT_TRUE(result.rounds.back().evaluated);  // final round always evaluated
}

TEST(Trainer, SameSeedIsFullyDeterministic) {
  auto a = run_training(tiny_config());
  auto b = run_training(tiny_config());
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].time_s, b.rounds[i].time_s);
    EXPECT_DOUBLE_EQ(a.rounds[i].reward, b.rounds[i].reward);
    EXPECT_EQ(a.rounds[i].group_size, b.rounds[i].group_size);
  }
  EXPECT_DOUBLE_EQ(a.total_cost_usd, b.total_cost_usd);
}

TEST(Trainer, VersionGatedPullsDecodeOncePerPolicyVersion) {
  // Functions pull `policy/latest` at container start; the gate decodes the
  // blob only when the cache entry's version changed, so decode count stays
  // far below pull count and every repeat pull is a recorded reuse.
  auto& m = obs::MetricsRegistry::global();
  const std::uint64_t decodes_before =
      m.counter("trainer.policy_decodes").value();
  const std::uint64_t reuses_before =
      m.counter("trainer.policy_pull_reuses").value();
  auto result = run_training(tiny_config());
  const std::uint64_t decodes =
      m.counter("trainer.policy_decodes").value() - decodes_before;
  const std::uint64_t reuses =
      m.counter("trainer.policy_pull_reuses").value() - reuses_before;
  EXPECT_GT(decodes, 0u);
  EXPECT_GT(reuses, 0u);
  // Every learner pulled (actors pull too), yet most pulls hit the gate.
  EXPECT_GE(decodes + reuses, result.learner_invocations);
  // At most one decode per policy version published (rounds + initial).
  EXPECT_LE(decodes, result.rounds.size() + 1);
}

TEST(Trainer, DifferentSeedsDiverge) {
  auto cfg = tiny_config();
  auto a = run_training(cfg);
  cfg.seed = 8;
  auto b = run_training(cfg);
  EXPECT_NE(a.total_time_s, b.total_time_s);
}

TEST(Trainer, CalibratesDeltaMaxInRoundZero) {
  auto result = run_training(tiny_config());
  EXPECT_GE(result.delta_max, 1.0);  // at least the floor
  EXPECT_FALSE(result.staleness_samples.empty());
}

TEST(Trainer, StalenessRespectsThresholdAfterCalibration) {
  auto cfg = tiny_config();
  cfg.rounds = 20;
  auto result = run_training(cfg);
  for (const auto& r : result.rounds) {
    if (!std::isfinite(r.staleness_threshold)) continue;  // calibration
    EXPECT_LE(r.mean_staleness, r.staleness_threshold + 1e-9);
  }
}

TEST(Trainer, CostSplitsSumToTotal) {
  auto result = run_training(tiny_config());
  EXPECT_NEAR(result.total_cost_usd,
              result.learner_cost_usd + result.actor_cost_usd +
                  result.parameter_cost_usd,
              1e-9);
}

TEST(Trainer, PrewarmingAvoidsColdStarts) {
  auto cfg = tiny_config();
  cfg.prewarm = true;
  auto warm = run_training(cfg);
  EXPECT_EQ(warm.cold_starts, 0u);
  cfg.prewarm = false;
  auto cold = run_training(cfg);
  EXPECT_GT(cold.cold_starts, 0u);
}

TEST(Trainer, LatencyBreakdownCoversComponents) {
  auto result = run_training(tiny_config());
  const auto& b = result.breakdown;
  EXPECT_GT(b.actor_sample_s, 0.0);
  EXPECT_GT(b.learner_compute_s, 0.0);
  EXPECT_GT(b.aggregate_s, 0.0);
  EXPECT_GT(b.data_load_s, 0.0);
  EXPECT_GT(b.total(), 0.0);
  EXPECT_GE(b.overhead_fraction(), 0.0);
  EXPECT_LT(b.overhead_fraction(), 1.0);
}

TEST(Trainer, KlTrackingProducesPerUpdateValues) {
  auto result = run_training(tiny_config());
  EXPECT_EQ(result.update_kls.size(), result.rounds.size());
}

TEST(Trainer, MaxLearnersCapsParallelism) {
  auto cfg = tiny_config();
  cfg.max_learners = 1;
  auto result = run_training(cfg);  // must still complete
  EXPECT_EQ(result.rounds.size(), cfg.rounds);
}

TEST(Trainer, ImpactAlgorithmRuns) {
  auto cfg = tiny_config();
  cfg.algorithm = Algorithm::kImpact;
  auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), cfg.rounds);
  EXPECT_TRUE(std::isfinite(result.final_reward));
}

TEST(Trainer, DiscreteEnvironmentRuns) {
  auto cfg = tiny_config();
  cfg.env_name = "Qbert";
  cfg.rounds = 6;
  auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), 6u);
}

TEST(Trainer, InvalidConfigThrows) {
  auto cfg = tiny_config();
  cfg.num_actors = 0;
  EXPECT_THROW(run_training(cfg), ConfigError);
  cfg = tiny_config();
  cfg.decay_d = 1.5;
  EXPECT_THROW(run_training(cfg), ConfigError);
  cfg = tiny_config();
  cfg.env_name = "NoSuchEnv";
  EXPECT_THROW(run_training(cfg), ConfigError);
  cfg = tiny_config();
  cfg.eval_interval = 0;
  EXPECT_THROW(run_training(cfg), ConfigError);
  cfg = tiny_config();
  cfg.eval_episodes = 0;
  EXPECT_THROW(run_training(cfg), ConfigError);
}

// The Fig. 11(a) ablation switch: every aggregation mode must run to
// completion on shared infrastructure.
class AggregationModes : public ::testing::TestWithParam<AggregationMode> {};

TEST_P(AggregationModes, TrainsToCompletion) {
  auto cfg = tiny_config();
  cfg.aggregation = GetParam();
  auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), cfg.rounds);
  EXPECT_TRUE(std::isfinite(result.final_reward));
  EXPECT_GT(result.total_cost_usd, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, AggregationModes,
                         ::testing::Values(AggregationMode::kStellaris,
                                           AggregationMode::kSoftsync,
                                           AggregationMode::kSsp,
                                           AggregationMode::kPureAsync));

TEST(Trainer, SoftsyncWaitsForConfiguredCount) {
  auto cfg = tiny_config();
  cfg.aggregation = AggregationMode::kSoftsync;
  cfg.softsync_count = 3;
  auto result = run_training(cfg);
  for (const auto& r : result.rounds) EXPECT_GE(r.group_size, 3u);
}

TEST(Trainer, PureAsyncAggregatesImmediately) {
  auto cfg = tiny_config();
  cfg.aggregation = AggregationMode::kPureAsync;
  auto result = run_training(cfg);
  // Immediate aggregation: groups are the gradients that arrived while the
  // parameter function was busy, typically one.
  double mean_group = 0.0;
  for (const auto& r : result.rounds) mean_group += double(r.group_size);
  mean_group /= double(result.rounds.size());
  EXPECT_LT(mean_group, 4.0);
}

TEST(Trainer, HpcClusterRuns) {
  auto cfg = tiny_config();
  cfg.cluster = serverless::ClusterSpec::hpc();
  cfg.rounds = 6;
  auto result = run_training(cfg);
  EXPECT_EQ(result.rounds.size(), 6u);
}

}  // namespace
}  // namespace stellaris::core
