// Per-execution scratch for serving bodies (sim/driver.hpp, DESIGN.md §15).
//
// A batched forward needs a model whose weights are the batch's policy
// version; under the concurrent driver several batches (possibly different
// versions of the SAME tenant) run at once, so models cannot be shared. The
// pool leases one scratch ActorCritic per body execution, exactly the
// core::WorkerContextPool discipline: lease at body start on whichever
// thread runs the body, construct outside the lock. Before its forward a
// body calls load(snap), which copies the weights in only when the context
// does not already hold that exact snapshot: forwards never write
// parameters, so a context's weights are a pure function of `loaded`, and
// which context a body draws never affects results. One pool per tenant,
// because the model geometry is the tenant's (obs_dim, act_dim, hidden).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/actor_critic.hpp"
#include "serve/policy_store.hpp"
#include "serve/serve_config.hpp"
#include "tensor/tensor.hpp"
#include "util/annotated_mutex.hpp"

namespace stellaris::serve {

struct ServeContext {
  ServeContext(const TenantConfig& tenant, std::uint64_t seed)
      : model(nn::ObsSpec::vector(tenant.obs_dim),
              tenant.discrete ? nn::ActionKind::kDiscrete
                              : nn::ActionKind::kContinuous,
              tenant.act_dim, make_net(tenant), seed) {}

  static nn::NetworkSpec make_net(const TenantConfig& tenant) {
    nn::NetworkSpec net;
    net.hidden = {tenant.hidden, tenant.hidden};
    return net;
  }

  /// Make `model` hold `snap`'s weights. Returns true when it had to copy
  /// them (set_flat_params, with its size check), false when `loaded` was
  /// already this snapshot. Identity is the shared_ptr itself: holding it
  /// keeps the address from being reused, and a republished version is a
  /// new snapshot, so it reloads.
  bool load(const PolicyRef& snap) {
    if (loaded == snap) return false;
    model.set_flat_params(
        std::span<const float>(snap->params.data(), snap->params.size()));
    loaded = snap;
    return true;
  }

  nn::ActorCritic model;  ///< scratch; its weights are `loaded`'s
  PolicyRef loaded;       ///< snapshot `model` holds; null before the first load
  /// The batch's (n, obs_dim) observation matrix, refilled by every body:
  /// its buffer persists, so a batch no larger than the largest before it
  /// allocates nothing.
  Tensor obs;
};

class ServeContextPool {
 public:
  ServeContextPool(TenantConfig tenant, std::uint64_t seed)
      : tenant_(std::move(tenant)), seed_(seed) {}

  /// RAII lease: returns the context to the free list on destruction.
  class Lease {
   public:
    Lease(ServeContextPool* pool, std::unique_ptr<ServeContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    ~Lease() {
      if (ctx_) pool_->give_back(std::move(ctx_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ServeContext* operator->() { return ctx_.get(); }
    ServeContext& operator*() { return *ctx_; }

   private:
    ServeContextPool* pool_;
    std::unique_ptr<ServeContext> ctx_;
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
    return Lease(this, std::make_unique<ServeContext>(tenant_, seed_));
  }

 private:
  void give_back(std::unique_ptr<ServeContext> ctx) {
    MutexLock lock(mu_);
    free_.push_back(std::move(ctx));
  }

  const TenantConfig tenant_;
  const std::uint64_t seed_;
  Mutex mu_{"serve/contexts", lock_rank::kServeContexts};
  std::vector<std::unique_ptr<ServeContext>> free_ GUARDED_BY(mu_);
};

}  // namespace stellaris::serve
