// Fault plan: WHAT goes wrong, WHEN, and HOW BADLY.
//
// Stellaris's premise is that serverless DRL tolerates dynamic, unreliable
// resources; this module supplies the unreliability. A FaultPlan describes
// a failure environment in two composable parts:
//
//  - a probabilistic model (FaultConfig): per-invocation container crashes,
//    straggler slowdowns, cache faults, and Poisson VM reclamations, all
//    sampled from a dedicated seeded RNG stream so a (config, seed) pair
//    replays bit-identically and never perturbs the simulation's other
//    random streams;
//  - an explicit schedule (ScheduledFault list): scripted events for
//    deterministic regression tests and demos ("reclaim a GPU VM at
//    t = 2.5 s", "crash the 3rd learner invocation").
//
// The all-zero default plan injects nothing and draws nothing: a zero-fault
// run is bit-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <vector>

namespace stellaris::fault {

/// Failure outcome attached to a serverless invocation (or retry chain).
enum class ErrorKind : std::uint8_t {
  kNone = 0,
  kCrash,        ///< container crashed mid-invocation
  kVmReclaim,    ///< host VM reclaimed (spot-style); container killed
  kCacheError,   ///< a cache operation inside the invocation failed
  kDeadline,     ///< retry chain exceeded its per-invocation deadline
};

const char* error_kind_name(ErrorKind kind);

/// What a scheduled fault does. Crash/straggler/cache kinds arm a one-shot
/// trap that fires on the next matching invocation at or after `time_s`;
/// kVmReclaim fires at `time_s` exactly.
enum class FaultKind : std::uint8_t {
  kCrash = 0,
  kVmReclaim,
  kStraggler,
  kCacheFail,
  kCacheDelay,
};

/// One scripted fault.
struct ScheduledFault {
  double time_s = 0.0;  ///< virtual time the fault arms (or fires: reclaim)
  FaultKind kind = FaultKind::kCrash;
  /// Restrict to one function kind (the integer value of
  /// serverless::FnKind); -1 matches any invocation. Ignored for reclaims.
  int fn_kind = -1;
  /// Kind-specific magnitude: crash → fraction of the invocation completed
  /// before dying (default 0.5); straggler → slowdown multiplier; cache
  /// delay → extra seconds. Unused for kCacheFail/kVmReclaim.
  double magnitude = 0.0;
};

/// Probabilistic failure environment. All probabilities are per-invocation;
/// reclamations are a Poisson process in virtual time.
struct FaultConfig {
  double crash_prob = 0.0;      ///< container dies partway through the work
  double crash_frac_lo = 0.1;   ///< completed fraction at death ~ U[lo, hi]
  double crash_frac_hi = 0.9;
  double straggler_prob = 0.0;  ///< invocation lands on a slow host
  double straggler_mult = 4.0;  ///< compute-time multiplier when it does
  double reclaim_rate_per_hour = 0.0;  ///< whole-VM spot reclamations
  double cache_fail_prob = 0.0;   ///< cache op fails -> invocation errors
  double cache_delay_prob = 0.0;  ///< cache op hits a slow shard
  double cache_delay_s = 0.05;    ///< extra latency when it does
  std::uint64_t seed = 0x5eedfa17ULL;  ///< fault stream seed (independent of
                                       ///< the simulation's other streams)

  /// True if any probabilistic fault can ever fire.
  bool any() const;
  void validate() const;
};

/// A complete failure environment: sampled model + scripted events.
struct FaultPlan {
  FaultConfig config;
  std::vector<ScheduledFault> schedule;

  bool any() const { return config.any() || !schedule.empty(); }
  void validate() const;
};

}  // namespace stellaris::fault
