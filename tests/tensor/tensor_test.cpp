#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "test_tensors.hpp"

namespace stellaris {
namespace {

TEST(Shape, NumelAndString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({}), 0u);  // empty shape is the empty tensor
  EXPECT_EQ(shape_numel({5}), 5u);
  EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ShapeConstructorZeroInitializes) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, BracedSizesMeanShapeNotValues) {
  // Regression: Tensor({m, n}) must call the Shape constructor even though
  // an initializer-list of floats would also be viable syntax.
  const std::size_t m = 4, n = 5;
  Tensor t({m, n});
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.numel(), 20u);
}

TEST(Tensor, OfMakesA1DTensor) {
  Tensor t = tensor_of({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.numel(), 3u);
  EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f}), Error);
}

TEST(Tensor, FullAndOnes) {
  EXPECT_EQ(Tensor::full({3}, 2.5f)[2], 2.5f);
  EXPECT_EQ(Tensor::full({2, 2}, 1.0f).sum(), 4.0f);
}

TEST(Tensor, RandnHasRoughlyRightMoments) {
  Rng rng(1);
  Tensor t = Tensor::randn({10000}, rng, 2.0f);
  EXPECT_NEAR(t.mean(), 0.0f, 0.1f);
  double sq = 0.0;
  for (float v : t.vec()) sq += double(v) * v;
  EXPECT_NEAR(std::sqrt(sq / t.numel()), 2.0, 0.1);
}

TEST(Tensor, RandUniformBounds) {
  Rng rng(2);
  Tensor t = Tensor::rand_uniform({1000}, rng, -1.0f, 1.0f);
  EXPECT_GE(t.min(), -1.0f);
  EXPECT_LT(t.max(), 1.0f);
}

TEST(Tensor, At2DAndRow) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
  auto r = t.row(1);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r[2], 6.0f);
  t.at(1, 1) = 50.0f;
  EXPECT_EQ(t.row(1)[1], 50.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), Error);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  Tensor c = a + b;
  EXPECT_EQ(c[2], 33.0f);
  Tensor d = b - a;
  EXPECT_EQ(d[0], 9.0f);
  Tensor e = a * 2.0f;
  EXPECT_EQ(e[1], 4.0f);
  Tensor f = 3.0f * a;
  EXPECT_EQ(f[0], 3.0f);
  a += b;
  EXPECT_EQ(a[0], 11.0f);
  a -= b;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2});
  Tensor b({3});
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a -= b, Error);
}

TEST(Tensor, Reductions) {
  Tensor t({4}, {-1, 2, -3, 4});
  EXPECT_FLOAT_EQ(t.sum(), 2.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.5f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 4.0f);
  EXPECT_FLOAT_EQ(t.norm(), std::sqrt(30.0f));
}

TEST(Tensor, KahanSumIsAccurate) {
  // 1 + many tiny values that a naive float accumulator would drop.
  std::vector<float> data(100001, 1e-7f);
  data[0] = 1.0f;
  Tensor t({data.size()}, data);
  EXPECT_NEAR(t.sum(), 1.0f + 1e-2f, 1e-4f);
}

TEST(Tensor, AllFinite) {
  Tensor t({2}, {1.0f, 2.0f});
  EXPECT_TRUE(all_finite(t));
  t[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(all_finite(t));
  t[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(all_finite(t));
}

TEST(Tensor, FillAndZero) {
  Tensor t({3});
  t.fill(7.0f);
  EXPECT_EQ(t.sum(), 21.0f);
  t.zero();
  EXPECT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, MinMaxOfEmptyThrows) {
  Tensor t;
  EXPECT_THROW(t.min(), Error);
  EXPECT_THROW(t.max(), Error);
}

}  // namespace
}  // namespace stellaris
