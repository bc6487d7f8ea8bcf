#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace stellaris {
namespace {

// Batch references RunningStat is checked against.

/// Mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Unbiased sample stddev of a vector (0 for n < 2).
double stddev_of(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

TEST(RunningStat, MatchesDirectComputation) {
  RunningStat rs;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  EXPECT_NEAR(rs.variance(), 37.2, 1e-9);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(Ema, BiasCorrectedEarlyValue) {
  Ema ema(0.9);
  ema.add(10.0);
  // With bias correction, the first value should be returned exactly.
  EXPECT_NEAR(ema.value(), 10.0, 1e-9);
}

TEST(Ema, ConvergesToConstant) {
  Ema ema(0.8);
  for (int i = 0; i < 200; ++i) ema.add(5.0);
  EXPECT_NEAR(ema.value(), 5.0, 1e-9);
}

TEST(Ema, TracksTrend) {
  Ema ema(0.5);
  for (int i = 0; i < 50; ++i) ema.add(i);
  EXPECT_GT(ema.value(), 40.0);
  EXPECT_LT(ema.value(), 50.0);
}

TEST(Histogram, CountsAndDensityIntegrateToOne) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i % 10 + 0.5);
  EXPECT_EQ(h.total(), 100u);
  const auto d = h.density();
  double integral = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i)
    integral += d[i] * (h.bin_lo(i + 1) - h.bin_lo(i));
  EXPECT_NEAR(integral, 1.0, 1e-9);
}

TEST(Histogram, ClampsOutOfRangeToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, BinGeometry) {
  Histogram h(2.0, 6.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 4.5);
}

TEST(Histogram, ThrowsOnDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(VectorStats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(stddev_of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stddev_of({1.0}), 0.0);
}

// Property: RunningStat mean/variance agree with mean_of/stddev_of for
// random samples of various sizes.
class StatAgreement : public ::testing::TestWithParam<int> {};

TEST_P(StatAgreement, RunningMatchesBatch) {
  Rng rng(GetParam());
  std::vector<double> xs;
  RunningStat rs;
  for (int i = 0; i < GetParam() * 13 + 2; ++i) {
    const double x = rng.normal(1.0, 4.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean_of(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), stddev_of(xs), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StatAgreement, ::testing::Values(1, 3, 10, 77));

}  // namespace
}  // namespace stellaris
