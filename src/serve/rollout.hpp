// Canary / A-B rollout controller for one tenant (DESIGN.md §15).
//
// At most two policy versions serve at once: the STABLE version and, while a
// canary is active, the CANARY version receiving `fraction` of traffic.
// Request assignment is a single bernoulli draw per arrival — and only while
// a canary is active, so the assignment RNG stream advances identically on
// reruns regardless of driver. ServeEngine feeds per-request latency and
// predicted value back via observe(); a periodic evaluate() judges the
// current window:
//
//   rollback  if canary p99 latency (nearest-rank) breaches the SLO, or the
//             canary's mean predicted value drifts from the stable arm's by
//             more than `max_value_drift` (relative);
//   promote   after `healthy_windows_to_promote` CONSECUTIVE healthy
//             windows (stable := canary);
//   continue  otherwise. Windows with fewer than `min_window_requests`
//             canary samples carry over un-judged.
//
// The state machine is engine-thread only; samples arrive at merge time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/serve_config.hpp"
#include "util/rng.hpp"

namespace stellaris::serve {

class RolloutController {
 public:
  explicit RolloutController(RolloutConfig cfg, std::uint64_t stable_version)
      : cfg_(cfg), stable_(stable_version) {}

  /// Begin a canary: `fraction` of subsequent arrivals go to `version`.
  void start(std::uint64_t version, double fraction);

  /// Version the next arrival should be served by. Draws from `rng` only
  /// while a canary is active (determinism contract).
  std::uint64_t assign(Rng& rng);

  /// Record one completed request's latency and mean predicted value.
  void observe(std::uint64_t version, double latency_s, double value);

  enum class Action { kNone, kContinue, kPromote, kRollback };

  struct Outcome {
    Action action = Action::kNone;
    double canary_p99 = 0.0;
    double stable_p99 = 0.0;
    double drift = 0.0;
    std::size_t canary_n = 0;
    std::string reason;  ///< "slo_breach" | "value_drift" | "healthy" | ""
  };

  /// Judge the window accumulated since the last judged evaluation.
  /// Returns kNone when no canary is active or the window is too small.
  Outcome evaluate();

  bool canary_active() const { return active_; }
  std::uint64_t stable_version() const { return stable_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t rollbacks() const { return rollbacks_; }

 private:
  struct Window {
    std::vector<double> latencies;
    double value_sum = 0.0;
    std::size_t n = 0;
  };

  void reset_windows();

  RolloutConfig cfg_;
  std::uint64_t stable_;
  std::uint64_t canary_ = 0;
  double fraction_ = 0.0;
  bool active_ = false;
  std::size_t healthy_windows_ = 0;
  Window stable_win_;
  Window canary_win_;
  std::uint64_t promotions_ = 0;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace stellaris::serve
