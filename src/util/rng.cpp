#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace stellaris {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // All-zero state is the one forbidden state for xoshiro; SplitMix64 cannot
  // produce four zeros from any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits -> double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  STELLARIS_DCHECK(n > 0);
  // Lemire's nearly-divisionless method.
  __uint128_t m = static_cast<__uint128_t>(next()) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next()) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  double u2 = uniform();
  // Avoid log(0).
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double ang = 2.0 * std::numbers::pi * u2;
  spare_normal_ = mag * std::sin(ang);
  has_spare_ = true;
  return mag * std::cos(ang);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace stellaris
