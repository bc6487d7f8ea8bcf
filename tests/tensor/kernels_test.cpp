// Bit-exactness and semantics tests for the blocked kernel library.
//
// The blocked GEMMs promise results bit-identical to the retained seed
// kernels (ops::reference) at any thread count: they tile only i/j and
// accumulate each output element's k terms in ascending order from 0.
// These tests pin that contract across tile-interior, tile-edge, prime,
// and degenerate shapes, plus the IEEE semantics (NaN propagation) that
// the seed's zero-skip branch used to violate.
//
// The kernel loops are built once per ISA tier (kernel_isa.hpp) and the
// process runs the highest one the host supports. The bit-identity tests
// therefore run every tier the host can execute, through the tier list,
// and compare each against the reference and against the other tiers,
// on inputs that include NaN, ±Inf and −0.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "specials.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/kernel_isa.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace stellaris {
namespace {

// Bitwise tensor equality: shape and every float's bit pattern.
void expect_bit_identical(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  if (a.numel() == 0) return;
  EXPECT_EQ(std::memcmp(a.data().data(), b.data().data(),
                        a.numel() * sizeof(float)),
            0)
      << what;
}

using ops::detail::KernelTable;
using ops::detail::KernelTier;


using testing_specials::default_nan;
using testing_specials::sprinkle_specials;

// `t` with NaN, +Inf, −Inf and −0 spread over its elements.
Tensor with_specials(Tensor t) {
  const std::size_t n = t.numel();
  if (n < 4) return t;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {default_nan(), inf, -inf, -0.0f};
  for (std::size_t s = 0; s < 4; ++s) t[(2 * s + 1) * n / 8] = specials[s];
  return t;
}

// Runs `fn(kernels)` for every host tier and checks each result bitwise
// against `expected` (when given) and against the first tier's result.
template <typename Fn>
void expect_tiers_agree(const Fn& fn, const Tensor* expected,
                        const char* what) {
  const auto tiers = ops::detail::host_kernel_tiers();
  Tensor first;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    SCOPED_TRACE(tiers[i].name);
    const Tensor out = fn(tiers[i].kernels());
    if (expected != nullptr) expect_bit_identical(out, *expected, what);
    if (i == 0)
      first = out;
    else
      expect_bit_identical(out, first, what);
  }
}

struct GemmDims {
  std::size_t m, k, n;
};

class BlockedVsReference : public ::testing::TestWithParam<GemmDims> {};

TEST_P(BlockedVsReference, AllVariantsBitIdentical) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000003 + k * 1009 + n);
  const Tensor a_nn = Tensor::randn({m, k}, rng);
  const Tensor b_nn = Tensor::randn({k, n}, rng);
  expect_bit_identical(ops::matmul(a_nn, b_nn),
                       ops::reference::matmul(a_nn, b_nn), "matmul");

  const Tensor a_tn = Tensor::randn({k, m}, rng);
  expect_bit_identical(ops::matmul_tn(a_tn, b_nn),
                       ops::reference::matmul_tn(a_tn, b_nn), "matmul_tn");

  const Tensor b_nt = Tensor::randn({n, k}, rng);
  expect_bit_identical(ops::matmul_nt(a_nn, b_nt),
                       ops::reference::matmul_nt(a_nn, b_nt), "matmul_nt");

  // Every tier, on the same operands and on operands with special values.
  for (const bool specials : {false, true}) {
    SCOPED_TRACE(specials ? "with NaN/Inf/-0" : "finite");
    const Tensor a = specials ? with_specials(a_nn) : a_nn;
    const Tensor b = specials ? with_specials(b_nn) : b_nn;
    const Tensor at = specials ? with_specials(a_tn) : a_tn;
    const Tensor bt = specials ? with_specials(b_nt) : b_nt;
    const Tensor ref_nn = ops::reference::matmul(a, b);
    const Tensor ref_tn = ops::reference::matmul_tn(at, b);
    const Tensor ref_nt = ops::reference::matmul_nt(a, bt);
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor c;
          ops::detail::matmul_into(kt, c, a, b);
          return c;
        },
        &ref_nn, "matmul");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor c;
          ops::detail::matmul_tn_into(kt, c, at, b);
          return c;
        },
        &ref_tn, "matmul_tn");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor c;
          ops::detail::matmul_nt_into(kt, c, a, bt);
          return c;
        },
        &ref_nt, "matmul_nt");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedVsReference,
    ::testing::Values(GemmDims{1, 1, 1},            // single element
                      GemmDims{7, 11, 13},          // primes < one tile
                      GemmDims{67, 43, 129},        // primes across tiles
                      GemmDims{4, 8, 48},           // exactly one full tile row
                      GemmDims{64, 64, 64},         // 48+16 column split
                      GemmDims{128, 32, 128},       // 48+48+32 column split
                      GemmDims{5, 3, 17},           // scalar-tail columns
                      GemmDims{130, 7, 250},        // multiple row panels
                      GemmDims{512, 32, 3},         // policy head: row lanes
                      GemmDims{512, 32, 1},         // value head, n = 1
                      GemmDims{37, 29, 5},          // row-lane edge tile
                      GemmDims{16, 300, 15},        // one tile, column remainder
                      GemmDims{75, 700, 8},         // conv1 dW shape, edge
                      GemmDims{40, 5, 8},           // pack: k < one block
                      GemmDims{33, 16, 3},          // pack: k = one block
                      GemmDims{256, 75, 8},         // conv1 inference forward
                      GemmDims{1, 32, 3},           // m < 4: column path
                      GemmDims{0, 4, 5},            // zero rows
                      GemmDims{4, 0, 5},            // zero inner dim
                      GemmDims{4, 5, 0}));          // zero columns

TEST(BlockedGemm, ZeroInnerDimYieldsZeros) {
  // k = 0 means every output element is an empty sum: exactly 0.0f.
  const Tensor c = ops::matmul(Tensor({3, 0}), Tensor({0, 2}));
  ASSERT_EQ(c.shape(), (Shape{3, 2}));
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 0.0f);

  // Every tier overwrites a dirty output with exact zeros, in all three
  // variants (m = 20 takes the row lanes at n = 2).
  const Tensor zeros({20, 2});
  const auto dirty = [] { return Tensor::full({20, 2}, 1.0f); };
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        Tensor out = dirty();
        ops::detail::matmul_into(kt, out, Tensor({20, 0}), Tensor({0, 2}));
        return out;
      },
      &zeros, "matmul k = 0");
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        Tensor out = dirty();
        ops::detail::matmul_tn_into(kt, out, Tensor({0, 20}),
                                    Tensor({0, 2}));
        return out;
      },
      &zeros, "matmul_tn k = 0");
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        Tensor out = dirty();
        ops::detail::matmul_nt_into(kt, out, Tensor({20, 0}),
                                    Tensor({2, 0}));
        return out;
      },
      &zeros, "matmul_nt k = 0");
}

TEST(BlockedGemm, ThreadedBitIdenticalToSerial) {
  // n = 143 takes the column tiles; n = 5 the row-lane tiles, whose last
  // tile in the 190 - 128 = 62-row panel is shifted back.
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    const KernelTable& kt = tier.kernels();
    for (const std::size_t n : {143u, 5u}) {
      Rng rng(7);
      const Tensor a = Tensor::randn({190, 67}, rng);
      const Tensor b = Tensor::randn({67, n}, rng);
      const Tensor a_t = Tensor::randn({67, 190}, rng);
      const Tensor b_t = Tensor::randn({n, 67}, rng);

      Tensor serial_nn, serial_tn, serial_nt;
      ops::set_kernel_threads(1);
      ops::detail::matmul_into(kt, serial_nn, a, b);
      ops::detail::matmul_tn_into(kt, serial_tn, a_t, b);
      ops::detail::matmul_nt_into(kt, serial_nt, a, b_t);

      Tensor par_nn, par_tn, par_nt;
      ops::set_kernel_threads(4);
      const std::uint64_t saved_min = ops::kernel_parallel_min_flops();
      ops::set_kernel_parallel_min_flops(0);  // force the parallel path
      ops::detail::matmul_into(kt, par_nn, a, b);
      ops::detail::matmul_tn_into(kt, par_tn, a_t, b);
      ops::detail::matmul_nt_into(kt, par_nt, a, b_t);
      ops::set_kernel_parallel_min_flops(saved_min);
      ops::set_kernel_threads(1);

      expect_bit_identical(par_nn, serial_nn, "nn threaded");
      expect_bit_identical(par_tn, serial_tn, "tn threaded");
      expect_bit_identical(par_nt, serial_nt, "nt threaded");
      expect_bit_identical(serial_nn, ops::reference::matmul(a, b), "nn");
    }
  }
}

TEST(BlockedGemm, SmallRowCountsBitIdenticalInEveryTier) {
  // Fewer rows than one row-lane tile: below the padded-tile thresholds
  // the column tiles' scalar chains, above them one tile with zero rows
  // packed for the missing ones and only the live rows stored. Covers both
  // sides of the thresholds, k below, at and past one transpose block, and
  // an output that already holds other values.
  for (std::size_t m = 1; m < 16; ++m) {
    for (const std::size_t n : {1u, 3u, 6u, 8u, 15u}) {
      for (const std::size_t k : {1u, 5u, 16u, 17u, 33u}) {
        SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
        Rng rng(m * 10007 + k * 101 + n);
        for (const bool specials : {false, true}) {
          SCOPED_TRACE(specials ? "with NaN/Inf/-0" : "finite");
          Tensor a = Tensor::randn({m, k}, rng);
          Tensor b = Tensor::randn({k, n}, rng);
          Tensor bt = Tensor::randn({n, k}, rng);
          if (specials) {
            a = with_specials(a);
            b = with_specials(b);
            bt = with_specials(bt);
          }
          const Tensor ref_nn = ops::reference::matmul(a, b);
          const Tensor ref_nt = ops::reference::matmul_nt(a, bt);
          expect_tiers_agree(
              [&](const KernelTable& kt) {
                Tensor c = Tensor::full({m, n}, 7.0f);
                ops::detail::matmul_into(kt, c, a, b);
                return c;
              },
              &ref_nn, "matmul");
          expect_tiers_agree(
              [&](const KernelTable& kt) {
                Tensor c = Tensor::full({m, n}, 7.0f);
                ops::detail::matmul_nt_into(kt, c, a, bt);
                return c;
              },
              &ref_nt, "matmul_nt");
        }
      }
    }
  }
}

TEST(BlockedGemm, ThreadedShortLastPanelBitIdentical) {
  // m = 70 splits into row panels of 64 and 6 rows: the 6-row panel is
  // shorter than one row-lane tile, so matmul and matmul_nt run it as one
  // zero-padded tile and matmul_tn shifts its tile back into the panel
  // before. Every tier, two kernel threads, against the reference.
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    const KernelTable& kt = tier.kernels();
    for (const std::size_t n : {1u, 3u, 15u}) {
      SCOPED_TRACE(testing::Message() << "n = " << n);
      Rng rng(70 + n);
      const Tensor a = Tensor::randn({70, 33}, rng);
      const Tensor b = Tensor::randn({33, n}, rng);
      const Tensor a_t = Tensor::randn({33, 70}, rng);
      const Tensor b_t = Tensor::randn({n, 33}, rng);
      Tensor nn, tn, nt;
      ops::set_kernel_threads(2);
      const std::uint64_t saved_min = ops::kernel_parallel_min_flops();
      ops::set_kernel_parallel_min_flops(0);  // force the parallel path
      ops::detail::matmul_into(kt, nn, a, b);
      ops::detail::matmul_tn_into(kt, tn, a_t, b);
      ops::detail::matmul_nt_into(kt, nt, a, b_t);
      ops::set_kernel_parallel_min_flops(saved_min);
      ops::set_kernel_threads(1);
      expect_bit_identical(nn, ops::reference::matmul(a, b), "nn threaded");
      expect_bit_identical(tn, ops::reference::matmul_tn(a_t, b),
                           "tn threaded");
      expect_bit_identical(nt, ops::reference::matmul_nt(a, b_t),
                           "nt threaded");
    }
  }
}

TEST(BlockedGemm, KBlockedTnBitIdenticalInEveryTier) {
  // matmul_tn sweeps k in blocks of kTnKBlockRows and carries each
  // element's chain through C from one block to the next. k below, at and
  // one past a block and three blocks plus a partial one; fewer rows than
  // a tile (the packed column path), one tile, a tile plus a shifted-back
  // edge tile, and conv1's 75 rows; n across the row-lane column groups;
  // and the arcade learner's conv1 dW. Every tier, serial and on two
  // kernel threads (75 rows: panels of 64 and 11, the 11-row panel's tile
  // shifted back into the panel before), NaN/Inf/-0 spread over the
  // blocks, against the reference and into a dirty output.
  constexpr std::size_t kB = ops::detail::kTnKBlockRows;
  std::vector<GemmDims> shapes;
  for (const std::size_t k : {std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 17})
    for (const std::size_t m : {15u, 16u, 17u, 75u})
      for (const std::size_t n : {1u, 8u, 16u}) shapes.push_back({m, k, n});
  shapes.push_back({75, 49152, 8});
  for (const auto& [m, k, n] : shapes) {
    SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
    Rng rng(m * 7919 + k * 31 + n);
    for (const bool specials : {false, true}) {
      SCOPED_TRACE(specials ? "with NaN/Inf/-0" : "finite");
      Tensor a = Tensor::randn({k, m}, rng);
      Tensor b = Tensor::randn({k, n}, rng);
      if (specials) {
        a = with_specials(a);
        b = with_specials(b);
      }
      const Tensor ref = ops::reference::matmul_tn(a, b);
      for (const std::size_t threads : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << threads << " kernel threads");
        ops::set_kernel_threads(threads);
        const std::uint64_t saved_min = ops::kernel_parallel_min_flops();
        if (threads > 1) ops::set_kernel_parallel_min_flops(0);
        expect_tiers_agree(
            [&](const KernelTable& kt) {
              Tensor c = Tensor::full({m, n}, 7.0f);
              ops::detail::matmul_tn_into(kt, c, a, b);
              return c;
            },
            &ref, "matmul_tn");
        ops::set_kernel_parallel_min_flops(saved_min);
        ops::set_kernel_threads(1);
      }
    }
  }
}

// Rows [r0, r1) of a 2-D tensor, copied.
Tensor row_slice(const Tensor& t, std::size_t r0, std::size_t r1) {
  const std::size_t w = t.dim(1);
  return Tensor({r1 - r0, w},
                std::vector<float>(t.data().begin() + r0 * w,
                                   t.data().begin() + r1 * w));
}

// matmul_tn_carry_into and sum_rows_carry_into continue C's chains, so a
// k range cut anywhere (inside a k block, at one, across one), run piece
// by piece from zeros, gives the one-shot product's bits: Conv2d's frame
// tiles rely on it. Fewer rows than a tile (the reference loop), one tile,
// and conv1's 75 rows; every tier, serial and on two kernel threads, with
// NaN/Inf/-0 spread over the pieces.
TEST(CarriedChains, PiecewiseMatchesOneShotInEveryTier) {
  constexpr std::size_t kB = ops::detail::kTnKBlockRows;
  const std::size_t k = 2 * kB + 37;
  const std::vector<std::vector<std::size_t>> cuts = {
      {0, k}, {0, 1, k}, {0, 100, kB, kB + 1, k}, {0, 1728, 3456, k}};
  for (const std::size_t m : {5u, 16u, 75u}) {
    for (const std::size_t n : {1u, 8u, 16u}) {
      SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
      Rng rng(m * 31 + n);
      const Tensor a = with_specials(Tensor::randn({k, m}, rng));
      const Tensor b = with_specials(Tensor::randn({k, n}, rng));
      const Tensor ref_tn = ops::reference::matmul_tn(a, b);
      const Tensor ref_sum = ops::reference::sum_rows(b);
      for (const auto& cut : cuts) {
        for (const std::size_t threads : {1u, 2u}) {
          ops::set_kernel_threads(threads);
          const std::uint64_t saved_min = ops::kernel_parallel_min_flops();
          if (threads > 1) ops::set_kernel_parallel_min_flops(0);
          expect_tiers_agree(
              [&](const KernelTable& kt) {
                Tensor c({m, n});
                for (std::size_t i = 0; i + 1 < cut.size(); ++i)
                  ops::detail::matmul_tn_into(
                      kt, c, row_slice(a, cut[i], cut[i + 1]),
                      row_slice(b, cut[i], cut[i + 1]), true);
                return c;
              },
              &ref_tn, "matmul_tn carried");
          ops::set_kernel_parallel_min_flops(saved_min);
          ops::set_kernel_threads(1);
        }
        expect_tiers_agree(
            [&](const KernelTable& kt) {
              Tensor out({n});
              for (std::size_t i = 0; i + 1 < cut.size(); ++i)
                ops::detail::sum_rows_into(
                    kt, out, row_slice(b, cut[i], cut[i + 1]), true);
              return out;
            },
            &ref_sum, "sum_rows carried");
      }
    }
  }
  // The carried forms need the output already shaped.
  Tensor wrong({3, 3});
  EXPECT_THROW(ops::matmul_tn_carry_into(wrong, Tensor({4, 2}), Tensor({4, 3})),
               Error);
  EXPECT_THROW(ops::sum_rows_carry_into(wrong, Tensor({4, 3})), Error);
}

TEST(TransposeEach, BitIdenticalToScalarInEveryTier) {
  // Whole 4 × 4 blocks, a rows tail (conv2's 9 positions), a columns
  // tail, both, and degenerate sizes; NaN, ±Inf and −0 move unchanged.
  // A source row stride past `cols` (one torso's columns of the joint
  // first-conv product) leaves the other columns unread.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {64, 8}, {8, 64}, {9, 16}, {16, 9}, {7, 5}, {4, 4}, {1, 1}, {3, 1},
      {0, 4}};
  for (const auto& [rows, cols] : shapes) {
    for (const std::size_t ld : {cols, cols + 3, 2 * cols}) {
      SCOPED_TRACE(testing::Message() << rows << "x" << cols << " ld " << ld);
      const std::size_t count = 3;
      Rng rng(rows * 31 + cols + ld);
      const Tensor src =
          with_specials(Tensor::randn({count, rows * ld}, rng));
      Tensor expected({count, rows * cols});
      for (std::size_t m = 0; m < count; ++m)
        for (std::size_t i = 0; i < rows; ++i)
          for (std::size_t j = 0; j < cols; ++j)
            expected[m * rows * cols + j * rows + i] =
                src[m * rows * ld + i * ld + j];
      expect_tiers_agree(
          [&](const KernelTable& kt) {
            Tensor dst = Tensor::full({count, rows * cols}, 7.0f);
            kt.transpose_each(src.data().data(), count, rows, cols, ld,
                              dst.data().data());
            return dst;
          },
          &expected, "transpose_each");
    }
  }
}

TEST(BlockedGemm, IntoVariantsMatchValueVariants) {
  Rng rng(9);
  const Tensor a = Tensor::randn({33, 21}, rng);
  const Tensor b = Tensor::randn({21, 50}, rng);
  Tensor c({5});  // wrong shape and size: _into must reshape it
  ops::matmul_into(c, a, b);
  expect_bit_identical(c, ops::matmul(a, b), "matmul_into");

  // Reusing the (now bigger) buffer must not change results.
  const Tensor a2 = Tensor::randn({4, 21}, rng);
  ops::matmul_into(c, a2, b);
  expect_bit_identical(c, ops::matmul(a2, b), "matmul_into reuse");

  // The same in every tier: one buffer, reshaped then reused.
  const Tensor ref = ops::reference::matmul(a, b);
  const Tensor ref2 = ops::reference::matmul(a2, b);
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    Tensor out({5});
    ops::detail::matmul_into(tier.kernels(), out, a, b);
    expect_bit_identical(out, ref, "matmul_into");
    ops::detail::matmul_into(tier.kernels(), out, a2, b);
    expect_bit_identical(out, ref2, "matmul_into reuse");
  }
}

TEST(BlockedGemm, IntoRejectsAliasedOutput) {
  Tensor a = Tensor::full({4, 4}, 1.0f);
  Tensor b = Tensor::full({4, 4}, 1.0f);
  EXPECT_THROW(ops::matmul_into(a, a, b), Error);
  EXPECT_THROW(ops::matmul_into(b, a, b), Error);
  EXPECT_THROW(ops::matmul_tn_into(a, a, b), Error);
  EXPECT_THROW(ops::matmul_nt_into(b, a, b), Error);
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    const KernelTable& kt = tier.kernels();
    EXPECT_THROW(ops::detail::matmul_into(kt, a, a, b), Error);
    EXPECT_THROW(ops::detail::matmul_tn_into(kt, a, a, b), Error);
    EXPECT_THROW(ops::detail::matmul_nt_into(kt, b, a, b), Error);
  }
}

// The seed kernels skipped k terms where A's element was exactly 0.0f. IEEE
// requires 0·NaN = NaN and 0·Inf = NaN, so a NaN in the *other* operand must
// poison the output even when multiplied by zero. Satellite regression: all
// three variants propagate NaN.
TEST(GemmIeeeSemantics, NanInAPropagatesThroughZeroB) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({2, 3});
  a[4] = nan;  // a(1,1)
  const Tensor b({3, 2});  // all zeros

  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(1, 0))) << "matmul row with NaN";
  EXPECT_TRUE(std::isnan(c.at(1, 1)));
  EXPECT_EQ(c.at(0, 0), 0.0f) << "clean row stays clean";

  // tn: A is (k, m) = (3, 2); poison a(1, 1) -> output row 1.
  Tensor at({3, 2});
  at[3] = nan;
  const Tensor ct = ops::matmul_tn(at, Tensor({3, 2}));
  EXPECT_TRUE(std::isnan(ct.at(1, 0))) << "matmul_tn";
  EXPECT_EQ(ct.at(0, 0), 0.0f);

  // nt: B is (n, k); a NaN multiplied by B's zeros.
  const Tensor cn = ops::matmul_nt(a, Tensor({2, 3}));
  EXPECT_TRUE(std::isnan(cn.at(1, 0))) << "matmul_nt";
  EXPECT_EQ(cn.at(0, 0), 0.0f);
}

TEST(GemmIeeeSemantics, ReferenceKernelsAlsoPropagate) {
  // The retained oracle must share the fixed semantics, or the bit-compare
  // tests above would be vacuous on poisoned inputs.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a({1, 2});
  a[0] = nan;
  EXPECT_TRUE(std::isnan(ops::reference::matmul(a, Tensor({2, 1}))[0]));
  Tensor at({2, 1});
  at[0] = nan;
  EXPECT_TRUE(std::isnan(ops::reference::matmul_tn(at, Tensor({2, 1}))[0]));
  EXPECT_TRUE(std::isnan(ops::reference::matmul_nt(a, Tensor({1, 2}))[0]));
}

// -- elementwise _into kernels ----------------------------------------------

TEST(ElementwiseInto, MatchesReference) {
  Rng rng(11);
  const Tensor x = Tensor::randn({37, 53}, rng);
  Tensor out;
  ops::tanh_forward_into(out, x);
  expect_bit_identical(out, ops::reference::tanh_forward(x), "tanh");
  ops::relu_forward_into(out, x);
  expect_bit_identical(out, ops::reference::relu_forward(x), "relu");
  ops::softmax_rows_into(out, x);
  expect_bit_identical(out, ops::reference::softmax_rows(x), "softmax");
  ops::log_softmax_rows_into(out, x);
  expect_bit_identical(out, ops::reference::log_softmax_rows(x),
                       "log_softmax");
  ops::sum_rows_into(out, x);
  expect_bit_identical(out, ops::reference::sum_rows(x), "sum_rows");

  // Every tier, on x and on x with special values. The backward kernels
  // and the bias add have no reference form: the tiers must agree.
  const Tensor dy = Tensor::randn({37, 53}, rng);
  const Tensor bias = with_specials(Tensor::randn({53}, rng));
  for (const bool specials : {false, true}) {
    SCOPED_TRACE(specials ? "with NaN/Inf/-0" : "finite");
    const Tensor in = specials ? with_specials(x) : x;
    const Tensor ref_tanh = ops::reference::tanh_forward(in);
    const Tensor ref_relu = ops::reference::relu_forward(in);
    const Tensor ref_sum = ops::reference::sum_rows(in);
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor y;
          ops::detail::tanh_forward_into(kt, y, in);
          return y;
        },
        &ref_tanh, "tanh");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor y;
          ops::detail::relu_forward_into(kt, y, in);
          return y;
        },
        &ref_relu, "relu");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor y;
          ops::detail::sum_rows_into(kt, y, in);
          return y;
        },
        &ref_sum, "sum_rows");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor dx;
          ops::detail::tanh_backward_into(kt, dx, in, dy);
          return dx;
        },
        nullptr, "tanh_backward");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor dx;
          ops::detail::relu_backward_into(kt, dx, in, dy);
          return dx;
        },
        nullptr, "relu_backward");
    expect_tiers_agree(
        [&](const KernelTable& kt) {
          Tensor y = in;
          ops::detail::add_bias_rows(kt, y, bias);
          return y;
        },
        nullptr, "add_bias_rows");
  }
}

TEST(ElementwiseInto, OutputMayAliasInput) {
  Rng rng(13);
  Tensor x = Tensor::randn({8, 9}, rng);
  const Tensor expected = ops::reference::softmax_rows(x);
  ops::softmax_rows_into(x, x);  // in place
  expect_bit_identical(x, expected, "softmax in place");

  Tensor y = Tensor::randn({40}, rng);
  const Tensor expected_tanh = ops::reference::tanh_forward(y);
  const Tensor y0 = y;
  ops::tanh_forward_into(y, y);
  expect_bit_identical(y, expected_tanh, "tanh in place");
  const Tensor expected_relu = ops::reference::relu_forward(y0);
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    Tensor t = y0;
    ops::detail::tanh_forward_into(tier.kernels(), t, t);
    expect_bit_identical(t, expected_tanh, "tanh in place");
    Tensor r = y0;
    ops::detail::relu_forward_into(tier.kernels(), r, r);
    expect_bit_identical(r, expected_relu, "relu in place");
  }
}

TEST(ElementwiseInto, SoftmaxHandlesZeroColumns) {
  Tensor lp;
  ops::softmax_rows_into(lp, Tensor({3, 0}));
  EXPECT_EQ(lp.shape(), (Shape{3, 0}));
  ops::log_softmax_rows_into(lp, Tensor({3, 0}));
  EXPECT_EQ(lp.shape(), (Shape{3, 0}));
}

TEST(ElementwiseInto, TanhParallelBitIdentical) {
  Rng rng(17);
  const Tensor x = Tensor::randn({600, 80}, rng);  // above parallel cutoff
  ops::set_kernel_threads(1);
  Tensor serial;
  ops::tanh_forward_into(serial, x);
  ops::set_kernel_threads(3);
  Tensor parallel;
  ops::tanh_forward_into(parallel, x);
  ops::set_kernel_threads(1);
  expect_bit_identical(parallel, serial, "tanh threaded");

  // Every tier's chunks give the serial bits.
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        ops::set_kernel_threads(3);
        Tensor y;
        ops::detail::tanh_forward_into(kt, y, x);
        ops::set_kernel_threads(1);
        return y;
      },
      &serial, "tanh threaded");
}

// The fused bias add and tanh against its two passes, add_bias_rows then
// tanh_forward_into, in the same tier, and every tier against the others:
// at row counts around the row-lane and vector widths, with special values
// in the product and the bias.
TEST(FusedBiasTanh, BitIdenticalToBiasThenTanhInEveryTier) {
  Rng rng(19);
  for (const std::size_t m : {1, 3, 16, 17, 512}) {
    for (const std::size_t n : {1, 3, 32, 33}) {
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
      const Tensor x = sprinkle_specials(Tensor::randn({m, n}, rng), 0, 5);
      const Tensor bias = sprinkle_specials(Tensor::randn({n}, rng), 2, 5);
      for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
        SCOPED_TRACE(tier.name);
        Tensor summed = x;
        ops::detail::add_bias_rows(tier.kernels(), summed, bias);
        Tensor want;
        ops::detail::tanh_forward_into(tier.kernels(), want, summed);
        Tensor got = x;
        ops::detail::add_bias_tanh_rows(tier.kernels(), got, bias);
        expect_bit_identical(got, want, "add_bias_tanh_rows");
      }
      expect_tiers_agree(
          [&](const KernelTable& kt) {
            Tensor y = x;
            ops::detail::add_bias_tanh_rows(kt, y, bias);
            return y;
          },
          nullptr, "add_bias_tanh_rows");
    }
  }
}

TEST(FusedBiasTanh, ThreadedBitIdenticalToSerial) {
  Rng rng(23);
  const Tensor x = Tensor::randn({600, 80}, rng);  // above parallel cutoff
  const Tensor bias = Tensor::randn({80}, rng);
  ops::set_kernel_threads(1);
  Tensor serial = x;
  ops::add_bias_tanh_rows(serial, bias);
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        ops::set_kernel_threads(3);
        Tensor y = x;
        ops::detail::add_bias_tanh_rows(kt, y, bias);
        ops::set_kernel_threads(1);
        return y;
      },
      &serial, "add_bias_tanh_rows threaded");
}

// -- tanh accuracy and pinned bits -------------------------------------------
// tanh is a fixed rational formula, not libm: the reference kernel is its
// bit oracle, double-precision std::tanh its accuracy oracle.

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

// Position of f on the number line in ulps (monotone across zero).
std::int64_t ulp_index(float f) {
  const std::uint32_t u = float_bits(f);
  const std::int64_t mag = u & 0x7fffffffu;
  return (u >> 31) ? -mag : mag;
}

// Every 257th float bit pattern in (0, 20], each with its negation next to
// it: ~4.3M inputs per sign.
Tensor strided_tanh_inputs() {
  std::vector<float> xs;
  for (std::uint32_t u = 1; u <= float_bits(20.0f); u += 257) {
    float f;
    std::memcpy(&f, &u, sizeof f);
    xs.push_back(f);
    xs.push_back(-f);
  }
  const std::size_t n = xs.size();
  return Tensor({n}, std::move(xs));
}

TEST(TanhRational, WithinSixUlpOfExactAndOdd) {
  const Tensor x = strided_tanh_inputs();
  Tensor y;
  ops::tanh_forward_into(y, x);
  std::int64_t worst_ulp = 0;
  double worst_abs = 0.0;
  for (std::size_t i = 0; i < x.numel(); i += 2) {
    const double exact = std::tanh(static_cast<double>(x[i]));
    const float rounded = static_cast<float>(exact);
    worst_ulp = std::max(worst_ulp, std::abs(ulp_index(y[i]) -
                                             ulp_index(rounded)));
    worst_abs = std::max(worst_abs, std::abs(y[i] - exact));
    ASSERT_LE(std::abs(y[i]), 1.0f) << x[i];
    ASSERT_EQ(float_bits(y[i + 1]), float_bits(-y[i])) << "odd at " << x[i];
  }
  EXPECT_LE(worst_ulp, 6);
  EXPECT_LE(worst_abs, 3.9e-7);
}

// Pinned outputs: any compiler, -march or FMA-contraction drift in the
// formula's evaluation shows up here as a changed bit pattern.
TEST(TanhRational, PinnedOutputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<float, float>> pins = {
      {0.0f, 0.0f},
      {-0.0f, -0.0f},
      {1e-4f, 1e-4f},  // below 4e-4: the input itself
      {4e-4f, 0x1.a36e28p-12f},
      {-4e-4f, -0x1.a36e28p-12f},
      {0.5f, 0x1.d9353ep-2f},
      {-1.0f, -0x1.85efacp-1f},
      {3.0f, 0x1.fd77dp-1f},
      {7.90531110763549805f, 1.0f},  // the clamp point
      {8.0f, 1.0f},
      {inf, 1.0f},
      {-inf, -1.0f},
  };
  std::vector<float> in;
  for (const auto& pin : pins) in.push_back(pin.first);
  in.push_back(std::numeric_limits<float>::quiet_NaN());
  const std::size_t n = in.size();
  const Tensor x({n}, std::move(in));
  Tensor y;
  ops::tanh_forward_into(y, x);
  for (std::size_t i = 0; i < pins.size(); ++i)
    EXPECT_EQ(float_bits(y[i]), float_bits(pins[i].second))
        << std::hexfloat << "tanh(" << pins[i].first << ") = " << y[i];
  EXPECT_TRUE(std::isnan(y[n - 1]));
  expect_bit_identical(y, ops::reference::tanh_forward(x), "pinned");

  // Every tier gives the pinned bits. Padded to 67 elements so each tier's
  // vector body, not only its scalar tail, sees every pin.
  std::vector<float> padded = x.vec();
  while (padded.size() < 67) padded.push_back(x[padded.size() % n]);
  const std::size_t np = padded.size();
  const Tensor xp({np}, std::move(padded));
  const Tensor ref = ops::reference::tanh_forward(xp);
  expect_tiers_agree(
      [&](const KernelTable& kt) {
        Tensor out;
        ops::detail::tanh_forward_into(kt, out, xp);
        return out;
      },
      &ref, "pinned");
  for (const KernelTier& tier : ops::detail::host_kernel_tiers()) {
    SCOPED_TRACE(tier.name);
    Tensor out;
    ops::detail::tanh_forward_into(tier.kernels(), out, x);
    for (std::size_t i = 0; i < pins.size(); ++i)
      EXPECT_EQ(float_bits(out[i]), float_bits(pins[i].second))
          << std::hexfloat << "tanh(" << pins[i].first << ") = " << out[i];
    EXPECT_TRUE(std::isnan(out[n - 1]));
  }
}

TEST(TanhRational, BackwardSlopeIsNonNegative) {
  const Tensor x = strided_tanh_inputs();
  Tensor y, dx;
  ops::tanh_forward_into(y, x);
  ops::tanh_backward_into(dx, y, Tensor::full(y.shape(), 1.0f));
  // |y| <= 1, so 1 - y² reaches zero where |y| = 1 and never goes below.
  for (std::size_t i = 0; i < y.numel(); ++i) {
    ASSERT_GE(dx[i], 0.0f) << x[i];
    ASSERT_LE(dx[i], 1.0f) << x[i];
    if (std::abs(y[i]) == 1.0f) {
      ASSERT_EQ(dx[i], 0.0f) << x[i];
    }
  }
}

// -- scratch pool ------------------------------------------------------------

TEST(ScratchPool, ReusesReturnedBuffers) {
  ops::ScratchPool pool;
  const float* p0 = nullptr;
  {
    auto lease = pool.take({16, 16});
    p0 = lease->data().data();
    EXPECT_EQ(lease->shape(), (Shape{16, 16}));
  }
  EXPECT_EQ(pool.pooled(), 1u);
  {
    // Smaller request: served from the same buffer, no new allocation.
    auto lease = pool.take({4, 4});
    EXPECT_EQ(lease->data().data(), p0);
    EXPECT_EQ(pool.pooled(), 0u);
  }
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(ScratchPool, PrefersSmallestSufficientBuffer) {
  ops::ScratchPool pool;
  const float* big = nullptr;
  const float* small = nullptr;
  {
    auto a = pool.take({100});
    auto b = pool.take({10});
    big = a->data().data();
    small = b->data().data();
  }
  EXPECT_EQ(pool.pooled(), 2u);
  {
    auto lease = pool.take({8});
    EXPECT_EQ(lease->data().data(), small)
        << "an oversized buffer must not be pinned to a small request";
  }
  {
    auto lease = pool.take({64});
    EXPECT_EQ(lease->data().data(), big);
  }
}

TEST(ScratchPool, KernelsReachSteadyStateWithoutAllocating) {
  // Both products pack A: matmul at n < 16 into row-lane tiles, matmul_tn
  // at m < 16 for the column tiles.
  Rng rng(23);
  const Tensor a = Tensor::randn({40, 30}, rng);
  const Tensor b = Tensor::randn({30, 5}, rng);
  const Tensor a_t = Tensor::randn({40, 9}, rng);
  const Tensor b_t = Tensor::randn({40, 50}, rng);
  Tensor c, c_t;
  // Warm-up populates the thread-local pool.
  ops::matmul_into(c, a, b);
  ops::matmul_tn_into(c_t, a_t, b_t);
  const std::uint64_t before = tensor_buffer_allocs();
  for (int i = 0; i < 5; ++i) {
    ops::matmul_into(c, a, b);
    ops::matmul_tn_into(c_t, a_t, b_t);
  }
  EXPECT_EQ(tensor_buffer_allocs(), before)
      << "steady-state matmul and matmul_tn must reuse their pack scratch";
}

// -- kernel config ------------------------------------------------------------

TEST(KernelConfig, ThreadSettingRoundTrips) {
  const std::size_t saved = ops::kernel_threads();
  ops::set_kernel_threads(3);
  EXPECT_EQ(ops::kernel_threads(), 3u);
  ops::set_kernel_threads(0);  // 0 clamps to 1 (serial)
  EXPECT_EQ(ops::kernel_threads(), 1u);
  ops::set_kernel_threads(saved == 0 ? 1 : saved);
}

// parse_kernel_threads: `auto` or a whole-string integer in [1, 4·hw];
// anything else warns once and means serial.
std::size_t parse_quietly(const char* value, unsigned hardware,
                          std::string* log) {
  ::testing::internal::CaptureStderr();
  const std::size_t n = ops::parse_kernel_threads(value, hardware);
  *log = ::testing::internal::GetCapturedStderr();
  return n;
}

std::size_t count_warnings(const std::string& log) {
  std::size_t n = 0;
  for (std::size_t at = log.find("[WARN]"); at != std::string::npos;
       at = log.find("[WARN]", at + 1))
    ++n;
  return n;
}

TEST(KernelConfig, ParseAcceptsAutoAndWholeIntegers) {
  std::string log;
  EXPECT_EQ(parse_quietly(nullptr, 4, &log), 1u);
  EXPECT_EQ(parse_quietly("", 4, &log), 1u);
  EXPECT_EQ(parse_quietly("auto", 4, &log), 4u);
  EXPECT_EQ(parse_quietly("auto", 0, &log), 1u);  // unknown hardware
  EXPECT_EQ(parse_quietly("1", 4, &log), 1u);
  EXPECT_EQ(parse_quietly("3", 4, &log), 3u);
  EXPECT_EQ(parse_quietly("16", 4, &log), 16u);  // 4·hardware is allowed
  EXPECT_EQ(parse_quietly("04", 4, &log), 4u);
  EXPECT_EQ(log, "") << "accepted values must not warn";
}

TEST(KernelConfig, ParseRejectsTrailingGarbage) {
  for (const char* v : {"4x", "4 ", "2.5", "auto2", "4\n"}) {
    std::string log;
    EXPECT_EQ(parse_quietly(v, 4, &log), 1u) << v;
    EXPECT_EQ(count_warnings(log), 1u) << v << ": " << log;
  }
}

TEST(KernelConfig, ParseRejectsNonNumeric) {
  for (const char* v : {"abc", "AUTO", "x4", " 4", "+4", "-2", "-"}) {
    std::string log;
    EXPECT_EQ(parse_quietly(v, 4, &log), 1u) << v;
    EXPECT_EQ(count_warnings(log), 1u) << v << ": " << log;
  }
}

TEST(KernelConfig, ParseRejectsOutOfRange) {
  for (const char* v : {"0", "17", "99999999999", "18446744073709551617",
                        "000000000000000000000000000000000000000017"}) {
    std::string log;
    EXPECT_EQ(parse_quietly(v, 4, &log), 1u) << v;
    EXPECT_EQ(count_warnings(log), 1u) << v << ": " << log;
  }
  std::string log;
  EXPECT_EQ(parse_quietly("5", 0, &log), 1u) << "unknown hardware caps at 4";
  EXPECT_EQ(count_warnings(log), 1u);
}

// -- ISA tiers ----------------------------------------------------------------
// select_kernel_tier is pure: fake feature masks stand in for CPUs.

// The x86-64 tier list as kernel_isa.cpp builds it, without the kernels.
constexpr KernelTier kFakeX86Tiers[] = {
    {"x86-64", 0, nullptr},
    {"x86-64-v3", ops::detail::kLevelV3, nullptr},
    {"x86-64-v4", ops::detail::kLevelV4, nullptr},
};

TEST(KernelIsa, SelectsHighestCompleteLevel) {
  using ops::detail::kLevelV2;
  using ops::detail::kLevelV3;
  using ops::detail::kLevelV4;
  using ops::detail::select_kernel_tier;
  EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, 0), 0u);
  EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, kLevelV2), 0u);
  EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, kLevelV3), 1u);
  EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, kLevelV4), 2u);
  EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, ~0u), 2u);
}

TEST(KernelIsa, MissingFeatureNeverSelectsItsTier) {
  using ops::detail::kLevelV3;
  using ops::detail::kLevelV4;
  using ops::detail::select_kernel_tier;
  for (std::uint32_t bit = 1; bit != 0; bit <<= 1) {
    if ((kLevelV4 & bit) == 0) continue;
    // Everything but one feature: an AVX-512 part (or the OS's saved ZMM
    // state) missing keeps the AVX2 tier; an AVX2-level part missing, or
    // the OS not saving YMM state, keeps the baseline.
    const std::size_t expected = (kLevelV3 & bit) != 0 ? 0u : 1u;
    EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, kLevelV4 & ~bit), expected)
        << "without feature bit 0x" << std::hex << bit;
    EXPECT_EQ(select_kernel_tier(kFakeX86Tiers, ~bit), expected)
        << "every other bit set, without 0x" << std::hex << bit;
  }
}

TEST(KernelIsa, BuildTiersAndActiveTier) {
  const auto tiers = ops::detail::kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers[0].required, 0u) << "the first tier must run anywhere";
#if defined(__x86_64__)
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_STREQ(tiers[0].name, "x86-64");
  EXPECT_STREQ(tiers[1].name, "x86-64-v3");
  EXPECT_STREQ(tiers[2].name, "x86-64-v4");
  EXPECT_EQ(tiers[1].required, ops::detail::kLevelV3);
  EXPECT_EQ(tiers[2].required, ops::detail::kLevelV4);
#else
  // Off x86-64 there is exactly one tier, whatever the feature mask.
  ASSERT_EQ(tiers.size(), 1u);
  EXPECT_EQ(ops::detail::select_kernel_tier(tiers, ~0u), 0u);
#endif
  // The process runs the tier selection picks for this host's features.
  const std::size_t picked = ops::detail::select_kernel_tier(
      tiers, ops::detail::host_cpu_features());
  EXPECT_STREQ(ops::kernel_isa(), tiers[picked].name);
  EXPECT_EQ(&ops::detail::active_kernels(), &tiers[picked].kernels());
  EXPECT_EQ(ops::detail::host_kernel_tiers().size(), picked + 1);
}

}  // namespace
}  // namespace stellaris
