#include "rl/vtrace.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"
#include "test_tensors.hpp"

namespace stellaris::rl {
namespace {

TEST(Vtrace, OnPolicyEqualsLambdaOneGae) {
  // With target == behaviour (ratios 1) and ρ̄ = c̄ = 1, vs_t is the
  // discounted Monte-Carlo return with bootstrap, i.e. λ=1 GAE targets.
  const std::size_t n = 4;
  Tensor logp({n});  // equal logps → ratio 1
  Tensor rewards({n}, {1, 2, 3, 4});
  Tensor dones({n});
  Tensor values({n}, {0.5f, 0.5f, 0.5f, 0.5f});
  const float boot = 2.0f;
  const double g = 0.9;
  auto vt = compute_vtrace(logp, logp, rewards, dones, values, boot, g);
  // vs_0 = r0 + γ r1 + γ² r2 + γ³ r3 + γ⁴ boot
  const double expected =
      1 + g * 2 + g * g * 3 + g * g * g * 4 + g * g * g * g * boot;
  EXPECT_NEAR(vt.vs[0], expected, 1e-5);
}

TEST(Vtrace, DoneBlocksPropagation) {
  Tensor logp({2});
  Tensor rewards({2}, {1.0f, 100.0f});
  Tensor dones({2}, {1.0f, 0.0f});
  Tensor values({2});
  auto vt = compute_vtrace(logp, logp, rewards, dones, values, 50.0f, 0.99);
  EXPECT_NEAR(vt.vs[0], 1.0, 1e-6);            // no leak from step 1
  EXPECT_NEAR(vt.pg_advantages[0], 1.0, 1e-6);
}

TEST(Vtrace, TruncatesLargeRatios) {
  // Behaviour logp much smaller than target → raw ratio huge, ρ̄ caps it.
  Tensor behaviour = tensor_of({-10.0f});
  Tensor target = tensor_of({0.0f});
  Tensor rewards = tensor_of({1.0f});
  Tensor dones = tensor_of({0.0f});
  Tensor values = tensor_of({0.0f});
  auto vt =
      compute_vtrace(behaviour, target, rewards, dones, values, 0.0f, 0.99,
                     /*rho_bar=*/1.0, /*c_bar=*/1.0);
  // δ = ρ (r + γ·boot − V) = 1 · 1.
  EXPECT_NEAR(vt.vs[0], 1.0, 1e-5);
}

TEST(Vtrace, SmallRatiosShrinkCorrections) {
  // Target much less likely than behaviour → ρ ≈ 0, vs ≈ V.
  Tensor behaviour = tensor_of({0.0f});
  Tensor target = tensor_of({-10.0f});
  Tensor rewards = tensor_of({5.0f});
  Tensor dones = tensor_of({0.0f});
  Tensor values = tensor_of({3.0f});
  auto vt = compute_vtrace(behaviour, target, rewards, dones, values, 0.0f,
                           0.99);
  EXPECT_NEAR(vt.vs[0], 3.0, 1e-3);
  EXPECT_NEAR(vt.pg_advantages[0], 0.0, 1e-3);
}

TEST(Vtrace, SizeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(compute_vtrace(a, b, a, a, a, 0.0f, 0.99), Error);
}

// Property: for arbitrary inputs, outputs are finite and pg advantages are
// bounded by ρ̄ · |r + γ·vs' − V|.
class VtraceSweep : public ::testing::TestWithParam<double> {};

TEST_P(VtraceSweep, OutputsFinite) {
  Rng rng(11);
  const std::size_t n = 32;
  Tensor behaviour = Tensor::randn({n}, rng);
  Tensor target = Tensor::randn({n}, rng);
  Tensor rewards = Tensor::randn({n}, rng, 3.0f);
  Tensor dones({n});
  for (std::size_t i = 0; i < n; ++i)
    dones[i] = rng.bernoulli(0.15) ? 1.0f : 0.0f;
  Tensor values = Tensor::randn({n}, rng);
  auto vt = compute_vtrace(behaviour, target, rewards, dones, values, 0.3f,
                           GetParam());
  EXPECT_TRUE(all_finite(vt.vs));
  EXPECT_TRUE(all_finite(vt.pg_advantages));
}

INSTANTIATE_TEST_SUITE_P(Gammas, VtraceSweep,
                         ::testing::Values(0.9, 0.99, 0.999));

}  // namespace
}  // namespace stellaris::rl
