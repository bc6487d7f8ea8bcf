// ServeEngine — the multi-tenant policy-serving data plane (DESIGN.md §15).
//
// One router per run, on the same serverless substrate as training: client
// requests arrive from seeded traffic generators, pass admission control,
// get a policy version from the tenant's rollout controller, queue into the
// tenant's per-version batch lanes, and dispatch as ONE batched forward per
// serving container — acquired from a ContainerPool, billed through the
// CostMeter, and subject to the fault plane. Batch bodies follow the
// capture / body / merge discipline of DESIGN.md §14:
//
//   capture   (engine thread) the decoded PolicyRef, the flattened
//             observation matrix, and a private result box;
//   body      lease a scratch model, load the snapshot into it only if the
//             context does not already hold it (ServeContext::load), one
//             blocked-GEMM policy + value forward over the whole batch;
//   merge     (engine thread, at the batch's virtual completion) join the
//             job, settle latencies / costs / rollout windows / ledger.
//
// All randomness (arrivals, observations, canary assignment, latency
// jitter, faults) draws from seeded streams on the engine thread in event
// order, so a (config, seed) pair replays bit-identically under the virtual
// and concurrent drivers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/distributed_cache.hpp"
#include "fault/fault_injector.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/autoscaler.hpp"
#include "serve/policy_store.hpp"
#include "serve/rollout.hpp"
#include "serve/serve_config.hpp"
#include "serve/serve_context.hpp"
#include "serve/traffic_gen.hpp"
#include "serverless/container_pool.hpp"
#include "serverless/cost_meter.hpp"
#include "sim/driver.hpp"
#include "sim/engine.hpp"

namespace stellaris::serve {

/// Deterministic initial weights for a tenant's served policy: the flat
/// parameter vector of a freshly seeded model with the tenant's geometry.
/// Benches and tests publish these before run().
std::vector<float> make_policy_params(const TenantConfig& tenant,
                                      std::uint64_t seed);

struct TenantResult {
  std::string name;
  std::uint64_t issued = 0;     ///< arrivals generated
  std::uint64_t admitted = 0;   ///< past admission control
  std::uint64_t rejected = 0;   ///< shed at the door
  std::uint64_t completed = 0;  ///< answered successfully
  std::uint64_t failed = 0;     ///< killed by an injected fault
  std::uint64_t batches = 0;    ///< dispatched batch invocations
  double mean_batch = 0.0;      ///< admitted-and-settled requests per batch
  double p50_s = 0.0;           ///< nearest-rank request latency quantiles
  double p99_s = 0.0;
  double p999_s = 0.0;
  double latency_sum_s = 0.0;
  /// Order-independent sum over every served request's predicted value —
  /// the cross-driver bit-identity probe.
  double value_checksum = 0.0;
  std::uint64_t final_stable_version = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;
};

struct ServeResult {
  std::vector<TenantResult> tenants;
  double duration_s = 0.0;  ///< virtual makespan (arrivals + drain)
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  double requests_per_hour = 0.0;  ///< completed per simulated hour
  double cost_usd = 0.0;
  double wasted_cost_usd = 0.0;    ///< billed seconds of crashed batches
  double cost_per_million = 0.0;   ///< $ per 1e6 completed inferences
  std::size_t peak_workers = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t policy_decodes = 0;
  std::uint64_t policy_reuses = 0;
  std::uint64_t crashes_injected = 0;
  /// Batch bodies that copied weights into their context, i.e. whose
  /// leased context held a different snapshot. Depends on how many
  /// contexts the driver's concurrency created, so like the kernel and
  /// tensor diagnostics it is not part of any cross-driver identity
  /// (DESIGN.md §14.1, §15.1).
  std::uint64_t model_loads = 0;
};

class ServeEngine {
 public:
  explicit ServeEngine(ServeConfig cfg);
  /// Waits out any body still running on the driver: bodies read batches
  /// and contexts that the tenants own.
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Publish `params` as `version` of tenant `t`'s policy (cache write
  /// through the normal wire format). `cost_mult` scales that version's
  /// serving compute — the heavier-canary knob of the rollback scenarios.
  void publish_policy(std::size_t t, const std::vector<float>& params,
                      std::uint64_t version, double cost_mult = 1.0);

  /// At virtual time `at_s`, start routing `fraction` of tenant `t`'s
  /// arrivals to `version` (must already be published by then).
  void schedule_canary(std::size_t t, std::uint64_t version, double fraction,
                       double at_s);

  /// Drive the whole scenario: traffic in, batches out, until arrivals stop
  /// and in-flight work drains. Call once.
  ServeResult run();

  // -- test / bench access --------------------------------------------------
  sim::Engine& engine() { return engine_; }
  cache::DistributedCache& cache() { return cache_; }
  PolicyStore& store() { return store_; }
  const serverless::ContainerPool& pool() const { return pool_; }
  const serverless::CostMeter& costs() const { return costs_; }
  const fault::FaultInjector& injector() const { return injector_; }
  const AdmissionController& admission(std::size_t t) const {
    return tenants_[t]->admission;
  }
  const RolloutController& rollout(std::size_t t) const {
    return tenants_[t]->rollout;
  }

 private:
  struct BatchResult;  // body output box (values + checksum)
  /// One dispatched batch, from capture to settle. Recycled per tenant.
  struct InflightBatch;
  /// A lane's armed wait cutoff (DESIGN.md §15.2).
  struct Cutoff {
    std::uint64_t version = 0;
    sim::Engine::CancelHandle handle;
    double head_arrival = -1.0;
  };

  struct TenantState {
    TenantState(const TenantConfig& cfg, sim::Engine& engine,
                std::uint64_t seed);
    ~TenantState();

    /// The cache key of `version`'s policy, built on the version's first
    /// dispatch and reused by every later one.
    const std::string& policy_key(std::uint64_t version);
    Cutoff* find_cutoff(std::uint64_t version);
    void erase_cutoff(std::uint64_t version);
    /// A settled batch to refill, or a new one; its buffers keep their
    /// capacity across uses.
    InflightBatch& take_batch();

    TenantConfig cfg;
    Batcher batcher;
    AdmissionController admission;
    RolloutController rollout;
    TrafficGen traffic;
    ServeContextPool contexts;
    Rng obs_rng;     ///< observation synthesis stream
    Rng assign_rng;  ///< canary bernoulli stream
    /// Emptied request obs buffers, reused by the next arrivals. Every
    /// buffer is queued in a request, in flight in a batch, or here, so the
    /// list is bounded by the tenant's peak queued-plus-in-flight count.
    std::vector<std::vector<float>> spare_obs;
    /// Armed per-lane cutoff timers, at most one per version; unordered
    /// (nothing iterates them in an order that matters).
    std::vector<Cutoff> cutoffs;
    std::vector<std::pair<std::uint64_t, std::string>> policy_keys;
    std::vector<std::unique_ptr<InflightBatch>> batch_pool;  ///< every batch made
    std::vector<InflightBatch*> free_batches;  ///< settled ones, to refill
    sim::Engine::CancelHandle rollout_timer;
    // Settled-request accounting.
    std::vector<double> latencies;
    double latency_sum_s = 0.0;
    double value_checksum = 0.0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t batches = 0;
    std::uint64_t batched_requests = 0;
  };

  void on_arrival(std::size_t t, std::uint64_t client);
  void pump();
  void dispatch_batch(std::size_t t, std::uint64_t version);
  void settle_batch(InflightBatch& b);
  void arm_lane_cutoff(std::size_t t, std::uint64_t version);
  void cancel_lane_cutoff(TenantState& ts, std::uint64_t version);
  void arm_autoscale_timer();
  void arm_rollout_timer(std::size_t t);
  void evaluate_rollout(std::size_t t);
  std::size_t total_queued() const;
  void maybe_finish();

  ServeConfig cfg_;
  sim::Engine engine_;
  std::unique_ptr<sim::Driver> driver_;
  cache::DistributedCache cache_;
  serverless::ContainerPool pool_;
  serverless::CostMeter costs_;
  fault::FaultInjector injector_;
  PolicyStore store_;
  Autoscaler autoscaler_;
  std::vector<std::unique_ptr<TenantState>> tenants_;
  Rng jitter_rng_;
  double unit_price_ = 0.0;
  std::uint64_t next_lid_ = 1;   ///< batch invocation ledger ids
  std::uint64_t next_req_ = 1;   ///< request ids
  std::size_t busy_workers_ = 0;
  std::uint64_t model_loads_ = 0;  ///< merged from BatchResult::loaded
  sim::Engine::CancelHandle autoscale_timer_;
  bool finished_ = false;
  bool ran_ = false;
};

}  // namespace stellaris::serve
