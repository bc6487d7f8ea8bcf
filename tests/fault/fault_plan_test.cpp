#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace stellaris::fault {
namespace {

TEST(FaultPlan, DefaultPlanInjectsNothing) {
  FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.config.any());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, AnyDetectsEachKnob) {
  FaultConfig cfg;
  cfg.crash_prob = 0.1;
  EXPECT_TRUE(cfg.any());
  cfg = FaultConfig{};
  cfg.straggler_prob = 0.1;
  EXPECT_TRUE(cfg.any());
  cfg = FaultConfig{};
  cfg.reclaim_rate_per_hour = 1.0;
  EXPECT_TRUE(cfg.any());
  cfg = FaultConfig{};
  cfg.cache_fail_prob = 0.1;
  EXPECT_TRUE(cfg.any());
  cfg = FaultConfig{};
  cfg.cache_delay_prob = 0.1;
  EXPECT_TRUE(cfg.any());
}

TEST(FaultPlan, ScheduleAloneCountsAsFaults) {
  FaultPlan plan;
  plan.schedule.push_back({1.0, FaultKind::kCrash, -1, 0.5});
  EXPECT_TRUE(plan.any());
  EXPECT_FALSE(plan.config.any());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, ValidateRejectsBadProbabilities) {
  FaultConfig cfg;
  cfg.crash_prob = -0.1;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg.crash_prob = 1.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(FaultPlan, ValidateRejectsCertainFailureForLiveness) {
  // crash_prob = 1 makes every retry chain fail forever.
  FaultConfig cfg;
  cfg.crash_prob = 1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = FaultConfig{};
  cfg.cache_fail_prob = 1.0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(FaultPlan, ValidateRejectsBadCrashFractionBounds) {
  FaultConfig cfg;
  cfg.crash_frac_lo = 0.8;
  cfg.crash_frac_hi = 0.2;
  EXPECT_THROW(cfg.validate(), ConfigError);
  cfg = FaultConfig{};
  cfg.crash_frac_hi = 1.5;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(FaultPlan, ValidateRejectsBadScheduleEntries) {
  FaultPlan plan;
  plan.schedule.push_back({-1.0, FaultKind::kCrash, -1, 0.5});
  EXPECT_THROW(plan.validate(), ConfigError);
  plan.schedule = {{1.0, FaultKind::kStraggler, -1, 0.5}};  // mult < 1
  EXPECT_THROW(plan.validate(), ConfigError);
  plan.schedule = {{1.0, FaultKind::kCrash, -1, 1.5}};  // frac > 1
  EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlan, NamesAreStable) {
  EXPECT_STREQ(error_kind_name(ErrorKind::kNone), "none");
  EXPECT_STREQ(error_kind_name(ErrorKind::kCrash), "crash");
  EXPECT_STREQ(error_kind_name(ErrorKind::kVmReclaim), "vm_reclaim");
  EXPECT_STREQ(error_kind_name(ErrorKind::kDeadline), "deadline");
}

}  // namespace
}  // namespace stellaris::fault
