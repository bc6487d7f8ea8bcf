// Dynamic request batching for one tenant (DESIGN.md §15).
//
// Requests queue into per-policy-version LANES (a batch must be a single
// forward through a single version, so versions cannot share a batch during
// a canary). A lane becomes dispatchable when it holds `max_batch` requests
// or when its oldest request has waited `max_wait_s` of virtual time. The
// batcher is pure bookkeeping over values the caller passes in — it never
// touches the engine; ServeEngine owns the cutoff timers and asks
// `ready_version(now)` at each pump.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "serve/serve_config.hpp"

namespace stellaris::serve {

/// One client inference request, from arrival to batch settlement.
struct ServeRequest {
  std::uint64_t id = 0;        ///< process-unique; doubles as the ledger id
  std::size_t tenant = 0;      ///< tenant index in ServeConfig::tenants
  std::uint64_t version = 0;   ///< policy version assigned at admission
  double arrival_s = 0.0;      ///< virtual arrival time (latency epoch)
  std::uint64_t client = 0;    ///< closed-loop client id (open loop: 0)
  std::vector<float> obs;      ///< observation vector (obs_dim floats)
};

class Batcher {
 public:
  explicit Batcher(BatchConfig cfg) : cfg_(cfg) {}

  const BatchConfig& config() const { return cfg_; }

  /// Queue a request into its version lane. Returns true if the lane was
  /// empty before (the caller arms that lane's cutoff timer).
  bool enqueue(ServeRequest req);

  /// Requests currently queued across all lanes.
  std::size_t queued() const { return queued_; }

  /// Dispatchable lane (full or expired) whose HEAD request has waited
  /// longest; ties break toward the lower version. nullopt when none.
  std::optional<std::uint64_t> ready_version(double now) const;

  /// Arrival time of the oldest head among dispatchable lanes (the
  /// cross-tenant fairness key ServeEngine sorts on). nullopt when none.
  std::optional<double> ready_head_arrival(double now) const;

  /// Move up to `max_batch` requests from lane `version`, FIFO, into `out`
  /// (cleared first; its capacity is reused).
  void take(std::uint64_t version, std::vector<ServeRequest>& out);

  /// Head arrival time of a lane, if it still holds requests — used to
  /// re-arm the cutoff for the remainder after a take().
  std::optional<double> head_arrival(std::uint64_t version) const;

 private:
  /// A FIFO ring over a grow-only buffer. A lane that empties keeps its
  /// storage (and its map node), so once every lane has reached its peak
  /// depth, queueing allocates nothing.
  class Lane {
   public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    ServeRequest& front() { return buf_[head_]; }
    const ServeRequest& front() const { return buf_[head_]; }
    void push_back(ServeRequest req);
    /// Drop the front slot (its request was moved out).
    void pop_front();

   private:
    std::vector<ServeRequest> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  bool lane_ready(const Lane& lane, double now) const;

  BatchConfig cfg_;
  std::map<std::uint64_t, Lane> lanes_;  ///< every version seen; never erased
  std::size_t queued_ = 0;
};

}  // namespace stellaris::serve
