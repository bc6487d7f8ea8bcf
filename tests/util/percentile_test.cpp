// Pins the nearest-rank percentile semantics shared by tools/report and the
// serving tier (util/percentile.hpp): rank = ceil(q*n) clamped to [1, n],
// value = sorted[rank-1]. Distinct from util/stats.hpp's interpolated
// percentile_sorted — nearest-rank always returns an observed sample.
// nearest_rank_select, the nth_element form, is pinned against
// nearest_rank_sorted.
#include "util/percentile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace stellaris {
namespace {

TEST(NearestRank, EmptySampleIsZero) {
  EXPECT_EQ(nearest_rank_sorted({}, 0.50), 0.0);
  EXPECT_EQ(nearest_rank_sorted({}, 0.99), 0.0);
}

TEST(NearestRank, SingleElementIsThatElement) {
  const std::vector<double> one = {7.5};
  EXPECT_EQ(nearest_rank_sorted(one, 0.0), 7.5);
  EXPECT_EQ(nearest_rank_sorted(one, 0.50), 7.5);
  EXPECT_EQ(nearest_rank_sorted(one, 1.0), 7.5);
}

TEST(NearestRank, QuantileZeroClampsToMin) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  // ceil(0*4) = 0 clamps to rank 1: the minimum, never an out-of-range read.
  EXPECT_EQ(nearest_rank_sorted(xs, 0.0), 1.0);
  EXPECT_EQ(nearest_rank_sorted(xs, -0.5), 1.0);
}

TEST(NearestRank, QuantileOneIsMax) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 1.0), 4.0);
}

TEST(NearestRank, MedianOfEvenCountIsLowerMiddle) {
  // Nearest-rank does NOT average: ceil(0.5*4) = 2 -> second element.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 2.0);
}

TEST(NearestRank, MedianOfOddCountIsMiddle) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 2.0);
}

TEST(NearestRank, P99OfHundredIsRank99) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  // ceil(0.99*100) = 99 -> the 99th smallest, not the max.
  EXPECT_EQ(nearest_rank_sorted(xs, 0.99), 99.0);
  EXPECT_EQ(nearest_rank_sorted(xs, 0.999), 100.0);
  EXPECT_EQ(nearest_rank_sorted(xs, 0.50), 50.0);
}

TEST(NearestRank, SmallSampleP99IsMax) {
  // With n < 100, p99 rank ceil(0.99*n) = n: the maximum.
  const std::vector<double> xs = {1.0, 5.0, 9.0};
  EXPECT_EQ(nearest_rank_sorted(xs, 0.99), 9.0);
}

TEST(NearestRank, UnsortedConvenienceOverloadSorts) {
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 0.50), 2.0);
  EXPECT_EQ(nearest_rank({3.0, 1.0, 2.0}, 1.0), 3.0);
}

// nearest_rank_select (nth_element) must return exactly what a full sort
// plus nearest_rank_sorted returns, including on ties and at the edges.
void expect_select_matches_sorted(const std::vector<double>& sample) {
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  for (const double q : {1e-9, 0.001, 0.5, 0.99, 0.999, 1.0}) {
    std::vector<double> work = sample;
    EXPECT_EQ(nearest_rank_select(work, q), nearest_rank_sorted(sorted, q))
        << "n=" << sample.size() << " q=" << q;
  }
}

TEST(NearestRankSelect, EmptySampleIsZero) {
  std::vector<double> empty;
  EXPECT_EQ(nearest_rank_select(empty, 0.50), 0.0);
  EXPECT_EQ(nearest_rank_select(empty, 1.0), 0.0);
}

TEST(NearestRankSelect, SingleElementIsThatElement) {
  expect_select_matches_sorted({7.5});
  std::vector<double> one = {7.5};
  EXPECT_EQ(nearest_rank_select(one, 1e-9), 7.5);
}

TEST(NearestRankSelect, TiesMatchSorted) {
  expect_select_matches_sorted({2.0, 2.0, 2.0, 2.0});
  expect_select_matches_sorted({3.0, 1.0, 3.0, 1.0, 2.0, 3.0, 1.0});
}

TEST(NearestRankSelect, MatchesSortedOnAShuffledSample) {
  // 1000 values with repeats in a scrambled order; q = tiny picks the
  // minimum, q = 1 the maximum.
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i)
    xs.push_back(static_cast<double>((i * 7919) % 997) * 0.25);
  expect_select_matches_sorted(xs);
}

TEST(NearestRankSelect, RepeatedCallsOnOneSample) {
  // The serving summary selects p50, p99 and p999 from one vector in turn;
  // each call's reordering must not disturb the next.
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i)
    xs.push_back(static_cast<double>((i * 37) % 101));
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(nearest_rank_select(xs, 0.50), nearest_rank_sorted(sorted, 0.50));
  EXPECT_EQ(nearest_rank_select(xs, 0.99), nearest_rank_sorted(sorted, 0.99));
  EXPECT_EQ(nearest_rank_select(xs, 0.999),
            nearest_rank_sorted(sorted, 0.999));
}

}  // namespace
}  // namespace stellaris
