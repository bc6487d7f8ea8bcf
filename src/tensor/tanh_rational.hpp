// tanh as a fixed odd rational function (Eigen's ptanh_float minimax fit,
// degree 13 over 6): at most 6 ulp and 3.9e-7 absolute from the exact
// value. It uses only +, *, / and compares, so its bits depend on IEEE
// single precision alone, not on the libm version or the ISA, as long as
// the including file is built without FMA contraction (-ffp-contract=off).
//
// Included by every kernel tier (kernel_tier.cpp) and by the scalar oracle
// ops::reference::tanh_forward (elementwise.cpp). The anonymous namespace
// gives each including file its own copy, so no tier's vectorized build of
// it can stand in for another's.
#pragma once

namespace stellaris::ops::detail {
namespace {

// Clamps and the final select are ternaries, not std::min/max/fabs, so a
// loop that calls this if-converts into straight-line SIMD code. NaN fails
// every compare and propagates; ±inf clamps to ±7.905…, where the ratio
// rounds to exactly ±1; |a| < 4e-4 returns a itself (exact, keeps -0).
inline float tanh_rational(float a) {
  constexpr float kClamp = 7.90531110763549805f;
  const float x = a > kClamp ? kClamp : (a < -kClamp ? -kClamp : a);
  const float x2 = x * x;
  float p = -2.76076847742355e-16f;
  p = p * x2 + 2.00018790482477e-13f;
  p = p * x2 + -8.60467152213735e-11f;
  p = p * x2 + 5.12229709037114e-08f;
  p = p * x2 + 1.48572235717979e-05f;
  p = p * x2 + 6.37261928875436e-04f;
  p = p * x2 + 4.89352455891786e-03f;
  p = p * x;
  float q = 1.19825839466702e-06f;
  q = q * x2 + 1.18534705686654e-04f;
  q = q * x2 + 2.26843463243900e-03f;
  q = q * x2 + 4.89352518554385e-03f;
  return (a < 4e-4f && a > -4e-4f) ? a : p / q;
}

}  // namespace
}  // namespace stellaris::ops::detail
