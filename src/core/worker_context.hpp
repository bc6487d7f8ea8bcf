// Per-execution scratch for invocation bodies (sim/driver.hpp).
//
// Under the virtual driver one body runs at a time, so a single set of
// scratch models would suffice; under the concurrent driver up to
// `--driver-threads` bodies run at once, each needing its own model
// buffers. A WorkerContext bundles everything a body mutates — scratch
// actor-critic models and batch-ingest buffers — and the pool leases one
// per body execution, creating contexts on demand up to the observed
// concurrency. Contexts are scratch by construction: every field is fully
// overwritten (set_flat_params / deserialize_concat_into) before it is
// read, so WHICH context a body draws never affects results — only how many
// allocations warm-up performs (why allocation-count diagnostics are
// excluded from the cross-driver identity check; DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "envs/env.hpp"
#include "nn/actor_critic.hpp"
#include "rl/sample_batch.hpp"
#include "rl/vec_actor.hpp"
#include "util/annotated_mutex.hpp"

namespace stellaris::core {

struct WorkerContext {
  WorkerContext(const envs::EnvSpec& env_spec, const nn::NetworkSpec& net_spec,
                std::uint64_t seed)
      : model(env_spec.obs, env_spec.action_kind, env_spec.act_dim, net_spec,
              seed),
        target(env_spec.obs, env_spec.action_kind, env_spec.act_dim, net_spec,
               seed ^ 0x7a6eULL) {}

  nn::ActorCritic model;   ///< actor policy / learner local model
  nn::ActorCritic target;  ///< IMPACT target network
  /// A learner's trajectory payloads, viewed for the merged decode.
  std::vector<ByteSpan> payload_bytes;
  rl::SampleBatch batch;  ///< deserialize_concat_into's merged batch
  rl::VecActorScratch vec_scratch;     ///< VecActor::sample batch scratch
};

class WorkerContextPool {
 public:
  WorkerContextPool(envs::EnvSpec env_spec, nn::NetworkSpec net_spec,
                    std::uint64_t seed)
      : env_spec_(std::move(env_spec)), net_spec_(net_spec), seed_(seed) {}

  /// RAII lease: returns the context to the free list on destruction.
  class Lease {
   public:
    Lease(WorkerContextPool* pool, std::unique_ptr<WorkerContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    ~Lease() {
      if (ctx_) pool_->give_back(std::move(ctx_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    WorkerContext* operator->() { return ctx_.get(); }
    WorkerContext& operator*() { return *ctx_; }

   private:
    WorkerContextPool* pool_;
    std::unique_ptr<WorkerContext> ctx_;
  };

  /// Thread-safe; called at body start on whichever thread runs the body.
  Lease lease() {
    {
      MutexLock lock(mu_);
      if (!free_.empty()) {
        auto ctx = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(ctx));
      }
    }
    // Construct outside the lock (model construction runs init kernels).
    return Lease(this,
                 std::make_unique<WorkerContext>(env_spec_, net_spec_, seed_));
  }

 private:
  void give_back(std::unique_ptr<WorkerContext> ctx) {
    MutexLock lock(mu_);
    free_.push_back(std::move(ctx));
  }

  const envs::EnvSpec env_spec_;
  const nn::NetworkSpec net_spec_;
  const std::uint64_t seed_;
  Mutex mu_{"core/worker-contexts", lock_rank::kWorkerContexts};
  std::vector<std::unique_ptr<WorkerContext>> free_ GUARDED_BY(mu_);
};

}  // namespace stellaris::core
