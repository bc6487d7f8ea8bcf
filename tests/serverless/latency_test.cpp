#include "serverless/latency_model.hpp"

#include <gtest/gtest.h>

namespace stellaris::serverless {
namespace {

TEST(Latency, TierOrderingForSamePayload) {
  LatencyModel lat;
  const std::size_t bytes = 1 << 20;
  EXPECT_LT(lat.transfer_s(DataTier::kSharedMemory, bytes),
            lat.transfer_s(DataTier::kRpc, bytes));
  EXPECT_LT(lat.transfer_s(DataTier::kRpc, bytes),
            lat.transfer_s(DataTier::kCache, bytes));
}

TEST(Latency, TransferMonotoneInBytes) {
  LatencyModel lat;
  for (auto tier :
       {DataTier::kSharedMemory, DataTier::kRpc, DataTier::kCache}) {
    double prev = 0.0;
    for (std::size_t bytes : {0u, 1024u, 1u << 20, 16u << 20}) {
      const double t = lat.transfer_s(tier, bytes);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

TEST(Latency, ZeroBytesIsBaseLatencyOnly) {
  LatencyModel lat;
  EXPECT_DOUBLE_EQ(lat.transfer_s(DataTier::kRpc, 0), lat.rpc_base_s);
}

TEST(Latency, LearnerComputeScalesWithBatchAndParams) {
  LatencyModel lat;
  const double small = lat.learner_compute_s(128, 1000, 3.5);
  const double big_batch = lat.learner_compute_s(512, 1000, 3.5);
  const double big_model = lat.learner_compute_s(128, 4000, 3.5);
  EXPECT_GT(big_batch, small);
  EXPECT_GT(big_model, small);
  EXPECT_GE(small, lat.learner_base_s);
}

TEST(Latency, FasterSlotIsFaster) {
  LatencyModel lat;
  EXPECT_LT(lat.learner_compute_s(256, 5000, 14.0),
            lat.learner_compute_s(256, 5000, 3.5));
}

TEST(Latency, AggregateScalesWithGroup) {
  LatencyModel lat;
  EXPECT_GT(lat.aggregate_s(8, 5000), lat.aggregate_s(1, 5000));
  EXPECT_GE(lat.aggregate_s(1, 1), lat.param_fn_base_s);
}

TEST(Latency, ActorStepCostsDifferByEnvKind) {
  LatencyModel lat;
  EXPECT_GT(lat.actor_sample_s(100, /*image_env=*/true),
            lat.actor_sample_s(100, /*image_env=*/false));
  EXPECT_DOUBLE_EQ(lat.actor_sample_s(0, false), 0.0);
}

TEST(Latency, JitterIsBoundedAndCentered) {
  LatencyModel lat;
  Rng rng(1);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double j = lat.jittered(1.0, rng);
    EXPECT_GT(j, 0.0);  // clamped positive
    sum += j;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

}  // namespace
}  // namespace stellaris::serverless
