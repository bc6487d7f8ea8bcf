#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace stellaris {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, UniformIntStaysBelowBound) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform_int(7), 7u);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRoughlyUniform) {
  Rng rng(23);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / double(n), 0.25, 0.01);
}

// Property sweep: every seed gives in-range uniforms and finite normals.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, BasicInvariantsHoldForSeed) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.uniform(), 1.0);
    EXPECT_LT(rng.uniform_int(13), 13u);
    EXPECT_TRUE(std::isfinite(rng.normal()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xffffffffULL,
                                           0xdeadbeefcafef00dULL));

}  // namespace
}  // namespace stellaris
