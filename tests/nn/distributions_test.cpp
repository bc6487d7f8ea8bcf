#include "nn/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/rng.hpp"
#include "test_tensors.hpp"

namespace stellaris::nn {
namespace {

// Allocating forms of the samplers, for building test inputs.
Tensor gaussian_sample(const Tensor& mean, const Tensor& log_std, Rng& rng) {
  Tensor out;
  gaussian_sample_into(out, mean, log_std, rng);
  return out;
}

std::vector<std::size_t> categorical_sample(const Tensor& logits, Rng& rng) {
  std::vector<std::size_t> actions;
  Tensor probs;
  categorical_sample_into(actions, probs, logits, rng);
  return actions;
}

constexpr double kLog2Pi = 1.8378770664093453;

TEST(Gaussian, LogProbMatchesClosedForm) {
  Tensor mean({1, 2}, {0.0f, 1.0f});
  Tensor log_std = tensor_of({0.0f, std::log(2.0f)});
  Tensor actions({1, 2}, {1.0f, 1.0f});
  Tensor lp = gaussian_log_prob(mean, log_std, actions);
  // dim0: z=1, logp = -0.5 - 0 - 0.5·log2π; dim1: z=0, logp = -log2 - 0.5·log2π
  const double expected = (-0.5 - 0.5 * kLog2Pi) +
                          (-std::log(2.0) - 0.5 * kLog2Pi);
  EXPECT_NEAR(lp[0], expected, 1e-5);
}

TEST(Gaussian, SampleMomentsMatch) {
  Rng rng(1);
  Tensor mean = Tensor::full({2000, 1}, 3.0f);
  Tensor log_std = tensor_of({std::log(0.5f)});
  Tensor s = gaussian_sample(mean, log_std, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : s.vec()) {
    sum += v;
    sq += (v - 3.0) * (v - 3.0);
  }
  EXPECT_NEAR(sum / 2000, 3.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / 2000), 0.5, 0.03);
}

TEST(Gaussian, LogProbBackwardMatchesFiniteDifference) {
  Rng rng(2);
  Tensor mean = Tensor::randn({4, 3}, rng);
  Tensor log_std = tensor_of({-0.3f, 0.1f, 0.4f});
  Tensor actions = Tensor::randn({4, 3}, rng);
  Tensor coeff = Tensor::randn({4}, rng);

  auto weighted_logp = [&](const Tensor& m, const Tensor& ls) {
    Tensor lp = gaussian_log_prob(m, ls, actions);
    double s = 0.0;
    for (std::size_t i = 0; i < 4; ++i) s += coeff[i] * lp[i];
    return s;
  };

  auto g = gaussian_log_prob_backward(mean, log_std, actions, coeff);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < mean.numel(); ++i) {
    Tensor mp = mean, mm = mean;
    mp[i] += eps;
    mm[i] -= eps;
    const double fd =
        (weighted_logp(mp, log_std) - weighted_logp(mm, log_std)) / (2 * eps);
    EXPECT_NEAR(g.dmean[i], fd, 1e-2);
  }
  for (std::size_t j = 0; j < 3; ++j) {
    Tensor lp = log_std, lm = log_std;
    lp[j] += eps;
    lm[j] -= eps;
    const double fd =
        (weighted_logp(mean, lp) - weighted_logp(mean, lm)) / (2 * eps);
    EXPECT_NEAR(g.dlog_std[j], fd, 1e-2);
  }
}

TEST(Gaussian, EntropyClosedForm) {
  Tensor log_std = tensor_of({0.0f, 1.0f});
  // H = Σ (logσ + ½log(2πe))
  const double expected = (0.0 + 0.5 * (kLog2Pi + 1.0)) +
                          (1.0 + 0.5 * (kLog2Pi + 1.0));
  EXPECT_NEAR(gaussian_entropy(log_std), expected, 1e-9);
}

TEST(Gaussian, KlZeroForIdenticalPolicies) {
  Rng rng(3);
  Tensor mean = Tensor::randn({5, 2}, rng);
  Tensor log_std = tensor_of({0.2f, -0.3f});
  Tensor kl = gaussian_kl(mean, log_std, mean, log_std);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(kl[i], 0.0f, 1e-6f);
}

TEST(Gaussian, KlIsNonnegativeAndGrowsWithDistance) {
  Tensor m1({1, 1}, {0.0f});
  Tensor m2({1, 1}, {1.0f});
  Tensor m3({1, 1}, {2.0f});
  Tensor ls = tensor_of({0.0f});
  const float kl_near = gaussian_kl(m1, ls, m2, ls)[0];
  const float kl_far = gaussian_kl(m1, ls, m3, ls)[0];
  EXPECT_GT(kl_near, 0.0f);
  EXPECT_GT(kl_far, kl_near);
  // KL(N(0,1) ‖ N(1,1)) = 0.5.
  EXPECT_NEAR(kl_near, 0.5f, 1e-6f);
}

TEST(Categorical, LogProbIsLogSoftmax) {
  Tensor logits({2, 3}, {1, 2, 3, 0, 0, 0});
  Tensor lp = categorical_log_prob(logits, {2, 0});
  const double denom = std::exp(1.0) + std::exp(2.0) + std::exp(3.0);
  EXPECT_NEAR(lp[0], std::log(std::exp(3.0) / denom), 1e-5);
  EXPECT_NEAR(lp[1], std::log(1.0 / 3.0), 1e-5);
}

TEST(Categorical, SampleFrequenciesMatchSoftmax) {
  Rng rng(4);
  Tensor logits({1, 3}, {0.0f, 1.0f, 2.0f});
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) {
    auto a = categorical_sample(logits, rng);
    ++counts[a[0]];
  }
  const double z = std::exp(0.0) + std::exp(1.0) + std::exp(2.0);
  EXPECT_NEAR(counts[0] / 30000.0, std::exp(0.0) / z, 0.01);
  EXPECT_NEAR(counts[2] / 30000.0, std::exp(2.0) / z, 0.01);
}

TEST(Categorical, LogProbBackwardMatchesFiniteDifference) {
  Rng rng(5);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<std::size_t> actions = {1, 3, 0};
  Tensor coeff = tensor_of({0.5f, -1.0f, 2.0f});

  auto weighted = [&](const Tensor& l) {
    Tensor lp = categorical_log_prob(l, actions);
    double s = 0.0;
    for (std::size_t i = 0; i < 3; ++i) s += coeff[i] * lp[i];
    return s;
  };

  Tensor g = categorical_log_prob_backward(logits, actions, coeff);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    EXPECT_NEAR(g[i], (weighted(lp) - weighted(lm)) / (2 * eps), 1e-2);
  }
}

TEST(Categorical, EntropyUniformIsLogN) {
  Tensor logits({1, 4});
  Tensor h = categorical_entropy(logits);
  EXPECT_NEAR(h[0], std::log(4.0f), 1e-5f);
}

TEST(Categorical, EntropyBackwardMatchesFiniteDifference) {
  Rng rng(6);
  Tensor logits = Tensor::randn({2, 3}, rng);
  Tensor coeff = tensor_of({1.0f, -0.5f});
  auto weighted = [&](const Tensor& l) {
    Tensor h = categorical_entropy(l);
    return coeff[0] * h[0] + coeff[1] * h[1];
  };
  Tensor g = categorical_entropy_backward(logits, coeff);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    EXPECT_NEAR(g[i], (weighted(lp) - weighted(lm)) / (2 * eps), 1e-2);
  }
}

TEST(Categorical, KlIdentities) {
  Rng rng(7);
  Tensor a = Tensor::randn({4, 5}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  Tensor self = categorical_kl(a, a);
  Tensor cross = categorical_kl(a, b);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(self[i], 0.0f, 1e-6f);
    EXPECT_GE(cross[i], 0.0f);
  }
}

// -- _into forms --------------------------------------------------------------
// The buffer-reusing forms are the rollout hot path (DESIGN.md §17); they
// must be bit-identical to the allocating forms — same draws, same
// arithmetic — and reuse capacity across calls.

TEST(GaussianInto, SampleAndLogProbBitIdenticalToAllocatingForms) {
  Rng r1(11), r2(11);
  Tensor mean = Tensor::randn({8, 3}, r1);
  Tensor mean2 = Tensor::randn({8, 3}, r2);  // keep streams aligned
  ASSERT_EQ(mean.vec(), mean2.vec());
  Tensor log_std = tensor_of({-0.2f, 0.0f, 0.3f});
  Tensor a = gaussian_sample(mean, log_std, r1);
  Tensor b;
  gaussian_sample_into(b, mean, log_std, r2);
  ASSERT_EQ(a.vec(), b.vec());
  Tensor lp_a = gaussian_log_prob(mean, log_std, a);
  Tensor lp_b;
  gaussian_log_prob_into(lp_b, mean, log_std, b);
  EXPECT_EQ(lp_a.vec(), lp_b.vec());
}

// σ_j is one float std::exp(log_std[j]) per call, not per element; each
// draw is still mean + σ_j · (float)normal, in row-major draw order.
TEST(GaussianInto, SampleMatchesPerElementFormula) {
  Rng init(14);
  const Tensor mean = Tensor::randn({5, 4}, init);
  const Tensor log_std = tensor_of({-0.7f, 0.0f, 0.45f, -2.3f});
  Rng r1(15), r2(15);
  Tensor out;
  gaussian_sample_into(out, mean, log_std, r1);
  ASSERT_EQ(out.shape(), mean.shape());
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      const float want = mean.at(i, j) + std::exp(log_std[j]) *
                                             static_cast<float>(r2.normal());
      const float got = out.at(i, j);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
          << i << "," << j << ": " << got << " vs " << want;
    }
  }
}

TEST(GaussianInto, ReusesCapacityAcrossCalls) {
  Rng rng(12);
  Tensor mean = Tensor::randn({4, 2}, rng);
  Tensor log_std = tensor_of({0.0f, 0.1f});
  Tensor out, lp;
  gaussian_sample_into(out, mean, log_std, rng);
  gaussian_log_prob_into(lp, mean, log_std, out);
  const std::uint64_t before = tensor_buffer_allocs();
  for (int i = 0; i < 20; ++i) {
    gaussian_sample_into(out, mean, log_std, rng);
    gaussian_log_prob_into(lp, mean, log_std, out);
  }
  EXPECT_EQ(tensor_buffer_allocs(), before);
}

TEST(CategoricalInto, SampleAndLogProbBitIdenticalToAllocatingForms) {
  Rng r1(13), r2(13);
  Tensor logits = Tensor::randn({6, 4}, r1);
  Tensor logits2 = Tensor::randn({6, 4}, r2);
  ASSERT_EQ(logits.vec(), logits2.vec());
  auto a = categorical_sample(logits, r1);
  std::vector<std::size_t> b;
  Tensor probs_scratch;
  categorical_sample_into(b, probs_scratch, logits, r2);
  ASSERT_EQ(a, b);
  Tensor lp_a = categorical_log_prob(logits, a);
  Tensor lp_b, lsm_scratch;
  categorical_log_prob_into(lp_b, lsm_scratch, logits, b);
  EXPECT_EQ(lp_a.vec(), lp_b.vec());
}

// -- per-column exp hoist -------------------------------------------------------
// The Gaussian kernels evaluate exp(log_std) once per column. These are the
// per-element formulas they replaced; every output must match them bit for
// bit, for a narrow head (stack storage) and a wide one (heap storage).

constexpr double kRefLog2Pi = 1.8378770664093453;

std::vector<float> ref_log_prob(const Tensor& mean, const Tensor& log_std,
                                const Tensor& actions) {
  std::vector<float> out(mean.dim(0));
  for (std::size_t i = 0; i < mean.dim(0); ++i) {
    double lp = 0.0;
    for (std::size_t j = 0; j < mean.dim(1); ++j) {
      const double ls = log_std[j];
      const double z = (actions.at(i, j) - mean.at(i, j)) / std::exp(ls);
      lp += -0.5 * z * z - ls - 0.5 * kRefLog2Pi;
    }
    out[i] = static_cast<float>(lp);
  }
  return out;
}

GaussianLogProbGrad ref_log_prob_backward(const Tensor& mean,
                                          const Tensor& log_std,
                                          const Tensor& actions,
                                          const Tensor& coeff) {
  const std::size_t m = mean.dim(0), d = mean.dim(1);
  GaussianLogProbGrad g{Tensor({m, d}), Tensor({d})};
  for (std::size_t i = 0; i < m; ++i) {
    const float c = coeff[i];
    for (std::size_t j = 0; j < d; ++j) {
      const double ls = log_std[j];
      const double inv_var = std::exp(-2.0 * ls);
      const double diff = actions.at(i, j) - mean.at(i, j);
      g.dmean.at(i, j) = static_cast<float>(c * diff * inv_var);
      g.dlog_std[j] += static_cast<float>(c * (diff * diff * inv_var - 1.0));
    }
  }
  return g;
}

std::vector<float> ref_kl(const Tensor& mean_p, const Tensor& log_std_p,
                          const Tensor& mean_q, const Tensor& log_std_q) {
  std::vector<float> out(mean_p.dim(0));
  for (std::size_t i = 0; i < mean_p.dim(0); ++i) {
    double kl = 0.0;
    for (std::size_t j = 0; j < mean_p.dim(1); ++j) {
      const double lp = log_std_p[j], lq = log_std_q[j];
      const double vp = std::exp(2.0 * lp), vq = std::exp(2.0 * lq);
      const double diff = mean_p.at(i, j) - mean_q.at(i, j);
      kl += lq - lp + (vp + diff * diff) / (2.0 * vq) - 0.5;
    }
    out[i] = static_cast<float>(kl);
  }
  return out;
}

class GaussianHoist : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaussianHoist, BitIdenticalToPerElementFormulas) {
  const std::size_t d = GetParam(), m = 17;
  Rng rng(31 + d);
  const Tensor mean = Tensor::randn({m, d}, rng);
  const Tensor mean_q = Tensor::randn({m, d}, rng);
  const Tensor log_std = Tensor::rand_uniform({d}, rng, -1.5f, 0.8f);
  const Tensor log_std_q = Tensor::rand_uniform({d}, rng, -1.5f, 0.8f);
  const Tensor coeff = Tensor::randn({m}, rng);
  const Tensor actions = gaussian_sample(mean, log_std, rng);

  EXPECT_EQ(gaussian_log_prob(mean, log_std, actions).vec(),
            ref_log_prob(mean, log_std, actions));
  const auto g = gaussian_log_prob_backward(mean, log_std, actions, coeff);
  const auto ref = ref_log_prob_backward(mean, log_std, actions, coeff);
  EXPECT_EQ(g.dmean.vec(), ref.dmean.vec());
  EXPECT_EQ(g.dlog_std.vec(), ref.dlog_std.vec());
  EXPECT_EQ(gaussian_kl(mean, log_std, mean_q, log_std_q).vec(),
            ref_kl(mean, log_std, mean_q, log_std_q));
}

TEST_P(GaussianHoist, BatchedLogProbEqualsRowByRow) {
  // The rollout computes every step's log-prob in one call after the loop;
  // each row must equal the single-row call it replaced.
  const std::size_t d = GetParam(), m = 9;
  Rng rng(47 + d);
  const Tensor mean = Tensor::randn({m, d}, rng);
  const Tensor log_std = Tensor::rand_uniform({d}, rng, -1.0f, 0.5f);
  const Tensor actions = gaussian_sample(mean, log_std, rng);
  Tensor batched, one, mean_row({1, d}), act_row({1, d});
  gaussian_log_prob_into(batched, mean, log_std, actions);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(mean.row(i).begin(), mean.row(i).end(), mean_row.row(0).begin());
    std::copy(actions.row(i).begin(), actions.row(i).end(),
              act_row.row(0).begin());
    gaussian_log_prob_into(one, mean_row, log_std, act_row);
    EXPECT_EQ(one[0], batched[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ActDims, GaussianHoist,
                         ::testing::Values(std::size_t{1}, std::size_t{3},
                                           std::size_t{32}, std::size_t{40}));

// Property: KL between a logit set and a shifted copy is invariant to the
// shift (softmax shift invariance).
class CategoricalShift : public ::testing::TestWithParam<float> {};

TEST_P(CategoricalShift, KlInvariantToLogitShift) {
  Rng rng(8);
  Tensor a = Tensor::randn({2, 4}, rng);
  Tensor b = a;
  for (auto& v : b.vec()) v += GetParam();
  Tensor kl = categorical_kl(a, b);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_NEAR(kl[i], 0.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Shifts, CategoricalShift,
                         ::testing::Values(-3.0f, -0.5f, 0.0f, 2.0f, 10.0f));

}  // namespace
}  // namespace stellaris::nn
