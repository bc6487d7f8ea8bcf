// ServerlessPlatform: the function invoker tying together the virtual-time
// engine, container pools, latency model, and cost meter.
//
// Learner and parameter functions share the GPU slot pool (capacity =
// GPUs × slots-per-GPU); actors get the CPU-core pool. Invocations that
// find the pool full queue FIFO and dispatch as slots free — the queueing
// that makes learner count vs. learning time non-linear in Fig. 3(a).
//
// Failure plane (src/fault): when a FaultInjector is attached, every
// dispatch consults it — invocations can crash partway through (billed for
// the seconds they consumed), run slow on straggler hosts, or fail their
// cache operations; whole VMs can be reclaimed spot-style, killing every
// container (busy or warm) on that host. `invoke_retrying` layers bounded
// exponential-backoff retries in virtual time on top. Without an injector,
// behaviour and results are bit-identical to the pre-fault platform.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "fault/retry_policy.hpp"
#include "obs/metrics.hpp"
#include "serverless/cluster.hpp"
#include "serverless/container_pool.hpp"
#include "serverless/cost_meter.hpp"
#include "serverless/latency_model.hpp"
#include "sim/driver.hpp"
#include "sim/engine.hpp"

namespace stellaris::serverless {

class ServerlessPlatform {
 public:
  ServerlessPlatform(sim::Engine& engine, ClusterSpec cluster,
                     LatencyModel latency, std::uint64_t seed);

  struct InvokeOptions {
    FnKind kind = FnKind::kLearner;
    double compute_s = 0.0;               ///< pre-jitter compute duration
    std::size_t payload_in_bytes = 0;     ///< input fetched before compute
    std::size_t payload_out_bytes = 0;    ///< output written after compute
    DataTier tier = DataTier::kCache;
    /// Fires when the container is acquired (after any queueing) — the
    /// moment a function "pulls the latest policy" in the paper's workflow.
    /// Under invoke_retrying this fires once per attempt, so a retried
    /// function naturally re-pulls a FRESH policy snapshot (retries do not
    /// silently inflate staleness).
    std::function<void(double start_time_s)> on_start;
    /// Label for this invocation's trace span (static string); falls back
    /// to the function-kind name when unset.
    const char* span_name = nullptr;
    /// Caller-assigned ledger id: stamps this invocation's `invoke` ledger
    /// event so downstream events (trajectories, gradients, aggregations)
    /// can reference the invocation that produced them. 0 = unassigned.
    /// Shared by every attempt of an invoke_retrying chain.
    std::uint64_t ledger_id = 0;
    /// Attempt number within an invoke_retrying chain (1 = first try).
    /// Stamped by invoke_retrying before each resubmit; part of the
    /// per-invocation RNG stream key (sim::invocation_stream).
    std::size_t attempt = 1;
    /// Real-execution handoff (DESIGN.md §14). When set, dispatch() calls
    /// it — on the engine thread, after `on_start` and only when the fault
    /// verdict lets this attempt run to completion — to capture the body's
    /// inputs and hand the body to the engine's driver. The platform joins
    /// the returned job at settle time, just before `cb`, when the attempt
    /// succeeded; a failed attempt's job is abandoned (the container's
    /// output died with it). Fires once per attempt, like on_start.
    std::function<sim::Driver::Job(std::size_t attempt)> spawn_body;
  };

  struct InvokeResult {
    double submit_time_s = 0.0;
    double start_time_s = 0.0;  ///< container acquired (after queueing)
    double end_time_s = 0.0;
    bool cold = false;
    double start_latency_s = 0.0;
    double transfer_s = 0.0;
    double compute_s = 0.0;
    double billed_s = 0.0;
    double cost_usd = 0.0;
    // Failure outcome. Failed invocations still bill the time they consumed.
    bool ok = true;
    fault::ErrorKind error = fault::ErrorKind::kNone;
    /// Set by invoke_retrying: attempts made (1 = no retry) and total
    /// virtual time spent waiting in backoff between them.
    std::size_t attempts = 1;
    double retry_wait_s = 0.0;
  };
  using Callback = std::function<void(const InvokeResult&)>;

  /// Submit an invocation; `cb` fires (in virtual time) at completion —
  /// with result.ok = false if the fault plane failed it.
  void invoke(const InvokeOptions& options, Callback cb);

  /// Submit with recovery: on failure, retries with exponential backoff +
  /// jitter (virtual time) per `policy`, re-entering the dispatch queue
  /// each time. `cb` fires once, with the final outcome; `result.attempts`
  /// and `result.retry_wait_s` describe the chain. Costs of every failed
  /// attempt stay on the meter.
  void invoke_retrying(const InvokeOptions& options,
                       const fault::RetryPolicy& policy, Callback cb);

  /// Attach the fault plane (nullptr detaches). Registers this platform as
  /// the injector's reclamation executor if the plan includes reclaims.
  void set_fault_injector(fault::FaultInjector* injector);

  /// Pre-warm up to n learner-pool containers (free of charge, per the
  /// paper's cost model).
  std::size_t prewarm_learners(std::size_t n);
  std::size_t prewarm_actors(std::size_t n);

  double now() const { return engine_.now(); }
  sim::Engine& engine() { return engine_; }
  const ClusterSpec& cluster() const { return cluster_; }
  const LatencyModel& latency() const { return latency_; }
  CostMeter& costs() { return costs_; }
  const CostMeter& costs() const { return costs_; }

  /// Busy-slot-seconds accumulated by completed + running learner
  /// invocations up to `now` divided by slots × elapsed: the GPU
  /// utilization metric of Fig. 3(a).
  double gpu_utilization() const;

  std::uint64_t learner_cold_starts() const { return gpu_pool_.cold_starts(); }
  std::uint64_t learner_warm_starts() const { return gpu_pool_.warm_starts(); }
  std::size_t queued(FnKind kind) const;
  std::uint64_t retries() const { return retries_; }
  std::uint64_t giveups() const { return giveups_; }
  std::size_t inflight() const { return inflight_.size(); }

  /// Number of reclaimable VMs (hosts) the cluster maps to.
  // analyze:test-only-ok tests observe the VM-to-host mapping through it
  std::size_t vm_count() const { return vm_hosts_.size(); }

 private:
  struct Pending {
    InvokeOptions options;
    Callback cb;
    double submit_time;
  };
  /// A dispatched, not-yet-completed invocation — the handle a VM
  /// reclamation uses to fail work mid-flight. Carries the telemetry
  /// context needed at settle time: trace spans and ledger events are
  /// emitted only once the outcome is final (normal completion OR a
  /// reclamation), so a killed invocation's span ends at the kill and a
  /// ledger never contains a span extending past it.
  struct InFlight {
    FnKind kind = FnKind::kLearner;
    std::size_t container = 0;
    InvokeResult result;
    Callback cb;
    const char* span_name = nullptr;
    DataTier tier = DataTier::kCache;
    std::size_t payload_in_bytes = 0;
    std::size_t payload_out_bytes = 0;
    double transfer_in_s = 0.0;
    double transfer_out_s = 0.0;
    double straggler_mult = 1.0;
    double cache_delay_s = 0.0;
    std::uint64_t ledger_id = 0;
    /// Driver job running this invocation's body (null when the caller set
    /// no spawn_body or the fault verdict failed the attempt at dispatch).
    sim::Driver::Job job;
  };
  /// One reclaimable host: a contiguous container-id range in one pool.
  struct VmHost {
    bool gpu_pool = false;
    std::size_t first_slot = 0;
    std::size_t slot_count = 0;
    std::string vm_name;
  };

  ContainerPool& pool_for(FnKind kind);
  std::deque<Pending>& queue_for(FnKind kind);
  double unit_price(FnKind kind) const;
  void try_dispatch(FnKind kind);
  void dispatch(Pending pending);
  void complete(std::uint64_t token);
  /// Cost/metric accounting + completion callback for a finished (or
  /// failed) invocation whose container slot has already been released or
  /// killed. Does NOT dispatch; callers run try_dispatch once their whole
  /// teardown is done.
  void settle_inflight(InFlight& inflight);
  void reclaim_random_vm(Rng& fault_rng);
  /// Trace span + ledger `invoke` event for a settled invocation (called
  /// from settle_inflight, never at dispatch — see InFlight).
  void trace_invocation(const InFlight& inflight) const;
  void ledger_invocation(const InFlight& inflight) const;
  void note_queue_depth(FnKind kind) const;
  void note_inflight(FnKind kind) const;
  static const char* pool_for_name(FnKind kind);

  sim::Engine& engine_;
  ClusterSpec cluster_;
  LatencyModel latency_;
  Rng rng_;
  ContainerPool gpu_pool_;
  ContainerPool actor_pool_;
  std::deque<Pending> gpu_queue_;
  std::deque<Pending> actor_queue_;
  CostMeter costs_;
  double learner_busy_s_ = 0.0;

  // Fault plane.
  fault::FaultInjector* injector_ = nullptr;
  std::vector<VmHost> vm_hosts_;
  std::uint64_t next_token_ = 0;
  std::map<std::uint64_t, InFlight> inflight_;
  // Indexed by training FnKind; kServe never enters this platform (checked
  // at invoke() — the serving tier runs its own data plane, src/serve).
  std::size_t inflight_by_kind_[3] = {0, 0, 0};
  std::uint64_t retries_ = 0;
  std::uint64_t giveups_ = 0;

  // Observability: run-scoped trace tag (captured at construction so all of
  // this platform's tracks group under the owning run) and metric handles.
  std::string trace_tag_;
  obs::Counter* m_invocations_[3];      // indexed by training FnKind
  obs::Counter* m_failed_invocations_;
  obs::Counter* m_retries_;
  obs::Counter* m_giveups_;
  obs::FixedHistogram* m_queue_wait_s_;
  obs::Gauge* m_gpu_queue_depth_;
  obs::Gauge* m_actor_queue_depth_;
};

}  // namespace stellaris::serverless
