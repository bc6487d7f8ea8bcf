// GPU data loader (§V-B): a lightweight daemon that decouples trajectory
// loading from learner execution, the way serverless pre-warming decouples
// code loading from invocation.
//
// The loader watches trajectory arrivals, batches them, and starts the
// cache→GPU transfer immediately — so by the time a learner function
// acquires a slot, its batch is usually already resident and the learner
// receives a *pointer*, not a payload. In virtual time this means a
// learner's effective input-transfer cost is max(0, transfer_done − start)
// instead of the full transfer.
//
// Tracked statistics (hit = batch resident before learner start) feed the
// Fig. 14 latency breakdown.
#pragma once

#include <cstdint>
#include <map>

#include "serverless/latency_model.hpp"

namespace stellaris::serverless {

class GpuDataLoader {
 public:
  GpuDataLoader(const LatencyModel& latency, std::uint64_t seed);

  /// A trajectory batch of `bytes` arrived in the cache at virtual `now`;
  /// the loader begins its transfer at once. Returns the id under which the
  /// batch is tracked.
  std::uint64_t on_trajectory(double now, std::size_t bytes);

  /// A learner is ready to consume batch `id` at `now`. Returns the
  /// residual wait (0 if the pre-load already finished) and retires the
  /// batch.
  double learner_wait_s(std::uint64_t id, double now);

  /// Batches currently in flight or resident but unclaimed.
  // analyze:test-only-ok tests observe batches retiring through it
  std::size_t outstanding() const { return in_flight_.size(); }
  // analyze:test-only-ok tests observe finished pre-loads through it
  std::uint64_t preload_hits() const { return hits_; }
  // analyze:test-only-ok tests observe residual waits through it
  std::uint64_t preload_misses() const { return misses_; }
  /// Total transfer seconds the loader overlapped with other work.
  // analyze:test-only-ok tests observe the overlap accounting through it
  double overlapped_s() const { return overlapped_s_; }

 private:
  struct Transfer {
    double start = 0.0;
    double ready = 0.0;
  };

  LatencyModel latency_;
  Rng rng_;
  std::map<std::uint64_t, Transfer> in_flight_;
  std::uint64_t next_id_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  double overlapped_s_ = 0.0;
};

}  // namespace stellaris::serverless
