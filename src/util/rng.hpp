// Deterministic random number generation.
//
// Every stochastic component in Stellaris (environments, policy sampling,
// simulated latency jitter) takes an explicit seed so that a full training
// run is a pure function of (config, seed). We use xoshiro256** seeded via
// SplitMix64, the standard pairing recommended by the xoshiro authors, which
// is far faster than std::mt19937_64 and has no seeding pathologies.
#pragma once

#include <cstdint>
#include <vector>

namespace stellaris {

/// SplitMix64: used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse generator.
///
/// Satisfies UniformRandomBitGenerator so it can be handed to <random>
/// distributions, though the member helpers below avoid libstdc++'s
/// comparatively slow distribution objects.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) without modulo bias (Lemire's method).
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box–Muller (cached spare).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace stellaris
