#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "util/rng.hpp"
#include "test_tensors.hpp"

namespace stellaris::ops {
namespace {

TEST(Matmul, HandComputed2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matmul, RectangularShapes) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 5.0f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({2, 3})), Error);
}

Tensor transpose(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::size_t i = 0; i < t.dim(0); ++i)
    for (std::size_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  return out;
}

TEST(Matmul, TnMatchesExplicitTranspose) {
  Rng rng(1);
  Tensor a = Tensor::randn({5, 4}, rng);
  Tensor b = Tensor::randn({5, 3}, rng);
  Tensor fast = matmul_tn(a, b);
  Tensor ref = matmul(transpose(a), b);
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i)
    EXPECT_NEAR(fast[i], ref[i], 1e-4f);
}

TEST(Matmul, NtMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({3, 6}, rng);
  Tensor fast = matmul_nt(a, b);
  Tensor ref = matmul(a, transpose(b));
  ASSERT_EQ(fast.shape(), ref.shape());
  for (std::size_t i = 0; i < fast.numel(); ++i)
    EXPECT_NEAR(fast[i], ref[i], 1e-4f);
}

TEST(Bias, AddBiasRows) {
  Tensor x({2, 3});
  Tensor b({3}, {1, 2, 3});
  add_bias_rows(x, b);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 3.0f);
}

TEST(Bias, SumRowsIsColumnSum) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = sum_rows(x);
  EXPECT_FLOAT_EQ(s[0], 5.0f);
  EXPECT_FLOAT_EQ(s[1], 7.0f);
  EXPECT_FLOAT_EQ(s[2], 9.0f);
}

TEST(Activations, TanhForwardBackward) {
  Tensor x({2}, {0.5f, -1.0f});
  Tensor y = tanh_forward(x);
  EXPECT_NEAR(y[0], std::tanh(0.5f), 1e-6f);
  Tensor dy({2}, {1.0f, 1.0f});
  Tensor dx = tanh_backward(y, dy);
  EXPECT_NEAR(dx[0], 1.0f - y[0] * y[0], 1e-6f);
  EXPECT_NEAR(dx[1], 1.0f - y[1] * y[1], 1e-6f);
}

TEST(Activations, ReluForwardBackward) {
  Tensor x({3}, {-1.0f, 0.0f, 2.0f});
  Tensor y = relu_forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor dy({3}, {5.0f, 5.0f, 5.0f});
  Tensor dx = relu_backward(x, dy);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 0.0f);  // gradient convention: zero at the kink
  EXPECT_EQ(dx[2], 5.0f);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(3);
  Tensor logits = Tensor::randn({4, 7}, rng, 3.0f);
  Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 7; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor logits({1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_TRUE(all_finite(p));
  EXPECT_GT(p.at(0, 1), p.at(0, 0));
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(4);
  Tensor logits = Tensor::randn({3, 5}, rng, 2.0f);
  Tensor p = softmax_rows(logits);
  Tensor lp = log_softmax_rows(logits);
  for (std::size_t i = 0; i < lp.numel(); ++i)
    EXPECT_NEAR(lp[i], std::log(p[i]), 1e-5f);
}

Conv2dSpec make_spec(std::size_t c, std::size_t h, std::size_t w,
                     std::size_t k, std::size_t stride, std::size_t pad) {
  Conv2dSpec s;
  s.in_channels = c;
  s.in_h = h;
  s.in_w = w;
  s.kernel = k;
  s.stride = stride;
  s.padding = pad;
  s.out_channels = 1;
  return s;
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel stride 1: im2col is the identity up to layout.
  auto spec = make_spec(1, 3, 3, 1, 1, 0);
  Tensor x({1, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = im2col(x, spec);
  EXPECT_EQ(cols.shape(), (Shape{9, 1}));
  for (std::size_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(cols[i], x[i]);
}

TEST(Im2col, ExtractsReceptiveFields) {
  auto spec = make_spec(1, 3, 3, 2, 1, 0);
  Tensor x({1, 9}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor cols = im2col(x, spec);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Top-left receptive field is [1, 2, 4, 5].
  EXPECT_FLOAT_EQ(cols.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 2), 4.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 5.0f);
  // Bottom-right receptive field is [5, 6, 8, 9].
  EXPECT_FLOAT_EQ(cols.at(3, 0), 5.0f);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 9.0f);
}

TEST(Im2col, PaddingYieldsZeros) {
  auto spec = make_spec(1, 2, 2, 3, 1, 1);
  Tensor x({1, 4}, {1, 2, 3, 4});
  Tensor cols = im2col(x, spec);
  // First patch centered at (-1,-1).. top-left corner: first element padded.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);  // center of 3x3 patch at (0,0)
}

// Adjoint property: <im2col(x), y> == <x, col2im(y)> for all x, y. This is
// the exact condition for the conv backward pass to be the true gradient.
class Im2colAdjoint
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Im2colAdjoint, HoldsForGeometry) {
  const auto [kernel, stride, pad] = GetParam();
  auto spec = make_spec(2, 6, 5, kernel, stride, pad);
  Rng rng(99);
  const std::size_t batch = 3;
  Tensor x = Tensor::randn({batch, 2 * 6 * 5}, rng);
  Tensor cols = im2col(x, spec);
  Tensor y = Tensor::randn(cols.shape(), rng);

  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i)
    lhs += double(cols[i]) * y[i];
  Tensor back;
  col2im_into(back, y, spec, batch);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) rhs += double(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(std::make_tuple(3, 1, 0), std::make_tuple(3, 2, 0),
                      std::make_tuple(2, 1, 1), std::make_tuple(3, 2, 1),
                      std::make_tuple(5, 1, 2)));

void expect_same_bits(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                        got.numel() * sizeof(float)),
            0);
}

// The run-copying lowering and scatter against the per-element reference
// loops, bit for bit, over kernels 1–6 (3 and 5 take the compile-time
// runs), strides 1–3 and padding 0–2 on a non-square 2-channel input,
// three images, with -0.0 and NaN among the values.
TEST(Im2col, SweepMatchesReferenceBitwise) {
  Rng rng(31);
  const std::size_t batch = 3, c = 2, h = 7, w = 6;
  Tensor x = Tensor::randn({batch, c * h * w}, rng);
  x[1] = -0.0f;
  x[c * h * w + 5] = std::nanf("");
  for (std::size_t k = 1; k <= 6; ++k)
    for (std::size_t stride = 1; stride <= 3; ++stride)
      for (std::size_t pad = 0; pad <= 2; ++pad) {
        SCOPED_TRACE(::testing::Message() << "kernel " << k << " stride "
                                          << stride << " pad " << pad);
        const auto spec = make_spec(c, h, w, k, stride, pad);
        Tensor cols = Tensor::full({1, 1}, 7.0f);  // reshaped, overwritten
        im2col_into(cols, x, spec);
        expect_same_bits(cols, reference::im2col(x, spec));

        Tensor dcols = Tensor::randn(cols.shape(), rng);
        dcols[0] = -0.0f;
        Tensor dx = Tensor::full({1, 1}, 7.0f);
        col2im_into(dx, dcols, spec, batch);
        expect_same_bits(dx, reference::col2im(dcols, spec, batch));
      }
}

TEST(Conv2dSpecTest, OutputGeometry) {
  auto spec = make_spec(3, 20, 20, 5, 2, 0);
  EXPECT_EQ(spec.out_h(), 8u);
  EXPECT_EQ(spec.out_w(), 8u);
}

}  // namespace
}  // namespace stellaris::ops
