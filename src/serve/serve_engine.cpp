#include "serve/serve_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"
#include "serverless/cluster.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/tensor.hpp"
#include "util/error.hpp"
#include "util/percentile.hpp"

namespace stellaris::serve {

namespace {

/// Derive an independent child seed from the run seed and a stream tag —
/// the same SplitMix64 expansion the Rng itself seeds with.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (tag + 1)));
  return sm.next();
}

}  // namespace

std::vector<float> make_policy_params(const TenantConfig& tenant,
                                      std::uint64_t seed) {
  return ServeContext(tenant, seed).model.flat_params();
}

/// Output box a batch body writes and the merge event reads after join():
/// per-request predicted values plus an order-independent action checksum.
struct ServeEngine::BatchResult {
  std::vector<double> values;
  double checksum = 0.0;
  bool loaded = false;  ///< the body copied weights into its context
};

/// Everything one batch carries from capture to settle. The body reads
/// `reqs`, `snap`, `contexts` and `obs_dim` and writes `box` through a raw
/// pointer to the batch; the engine thread leaves the batch alone between
/// dispatch and the settle event's join, and refills it only after that.
struct ServeEngine::InflightBatch {
  std::size_t tenant = 0;
  std::uint64_t version = 0;
  std::uint64_t lid = 0;
  std::size_t container = 0;
  bool cold = false;
  /// The requests, obs buffers included: the body gathers them into its
  /// context's obs tensor, and settle returns the buffers to the tenant.
  std::vector<ServeRequest> reqs;
  PolicyRef snap;
  ServeContextPool* contexts = nullptr;
  std::size_t obs_dim = 0;
  sim::Driver::Job job;  ///< null when the batch is doomed
  BatchResult box;
  bool ok = true;
  fault::ErrorKind error = fault::ErrorKind::kNone;
  double compute_s = 0.0;
  double billed_s = 0.0;
};

ServeEngine::TenantState::TenantState(const TenantConfig& tenant_cfg,
                                      sim::Engine& engine, std::uint64_t seed)
    : cfg(tenant_cfg),
      batcher(tenant_cfg.batch),
      admission(tenant_cfg.admission),
      rollout(tenant_cfg.rollout, tenant_cfg.initial_version),
      traffic(engine, tenant_cfg.traffic, sub_seed(seed, 0)),
      contexts(tenant_cfg, sub_seed(seed, 1)),
      obs_rng(sub_seed(seed, 2)),
      assign_rng(sub_seed(seed, 3)) {}

ServeEngine::TenantState::~TenantState() = default;

const std::string& ServeEngine::TenantState::policy_key(
    std::uint64_t version) {
  for (const auto& [v, key] : policy_keys)
    if (v == version) return key;
  return policy_keys.emplace_back(version, keys::policy(cfg.name, version))
      .second;
}

ServeEngine::Cutoff* ServeEngine::TenantState::find_cutoff(
    std::uint64_t version) {
  for (auto& c : cutoffs)
    if (c.version == version) return &c;
  return nullptr;
}

void ServeEngine::TenantState::erase_cutoff(std::uint64_t version) {
  Cutoff* c = find_cutoff(version);
  if (c == nullptr) return;
  *c = cutoffs.back();
  cutoffs.pop_back();
}

ServeEngine::InflightBatch& ServeEngine::TenantState::take_batch() {
  if (free_batches.empty()) {
    batch_pool.push_back(std::make_unique<InflightBatch>());
    return *batch_pool.back();
  }
  InflightBatch* b = free_batches.back();
  free_batches.pop_back();
  return *b;
}

ServeEngine::ServeEngine(ServeConfig cfg)
    : cfg_(std::move(cfg)),
      driver_(sim::make_driver(cfg_.driver, cfg_.driver_threads)),
      pool_(cfg_.worker_capacity, cfg_.latency, sub_seed(cfg_.seed, 0xb001),
            "serve"),
      injector_(engine_, cfg_.faults),
      store_(cache_),
      autoscaler_(cfg_.autoscale),
      jitter_rng_(sub_seed(cfg_.seed, 0xd177)) {
  STELLARIS_CHECK_MSG(!cfg_.tenants.empty(), "serve config needs >= 1 tenant");
  STELLARIS_CHECK_MSG(cfg_.autoscale.max_workers <= cfg_.worker_capacity,
                      "autoscale max_workers exceeds pool capacity");
  engine_.set_driver(driver_.get());
  unit_price_ = cfg_.unit_price_per_s > 0.0
                    ? cfg_.unit_price_per_s
                    : serverless::ClusterSpec::regular_small()
                          .actor_unit_price();
  tenants_.reserve(cfg_.tenants.size());
  for (std::size_t t = 0; t < cfg_.tenants.size(); ++t)
    tenants_.push_back(std::make_unique<TenantState>(
        cfg_.tenants[t], engine_, sub_seed(cfg_.seed, 0x10000 + t)));
}

ServeEngine::~ServeEngine() { driver_->drain(); }

void ServeEngine::publish_policy(std::size_t t,
                                 const std::vector<float>& params,
                                 std::uint64_t version, double cost_mult) {
  STELLARIS_CHECK(t < tenants_.size());
  store_.publish(tenants_[t]->cfg.name, params, version, cost_mult);
}

void ServeEngine::schedule_canary(std::size_t t, std::uint64_t version,
                                  double fraction, double at_s) {
  STELLARIS_CHECK(t < tenants_.size());
  engine_.schedule_at(at_s, [this, t, version, fraction] {
    tenants_[t]->rollout.start(version, fraction);
    if (auto* led = obs::ledger())
      led->append(obs::LedgerEvent("serve_rollout", engine_.now())
                      .field("tenant", tenants_[t]->cfg.name)
                      .field("action", "start")
                      .field("version", version)
                      .field("fraction", fraction)
                      .finish());
  });
}

void ServeEngine::on_arrival(std::size_t t, std::uint64_t client) {
  auto& ts = *tenants_[t];
  if (!ts.admission.admit(ts.batcher.queued())) {
    if (auto* led = obs::ledger())
      led->append(obs::LedgerEvent("serve_reject", engine_.now())
                      .field("tenant", ts.cfg.name)
                      .field("queued", ts.batcher.queued())
                      .finish());
    ts.traffic.on_complete(client);
    maybe_finish();
    return;
  }
  ServeRequest req;
  req.id = next_req_++;
  req.tenant = t;
  req.version = ts.rollout.assign(ts.assign_rng);
  req.arrival_s = engine_.now();
  req.client = client;
  if (!ts.spare_obs.empty()) {
    req.obs = std::move(ts.spare_obs.back());
    ts.spare_obs.pop_back();
  }
  req.obs.reserve(ts.cfg.obs_dim);
  for (std::size_t d = 0; d < ts.cfg.obs_dim; ++d)
    req.obs.push_back(static_cast<float>(ts.obs_rng.uniform(-1.0, 1.0)));
  const std::uint64_t version = req.version;
  ts.batcher.enqueue(std::move(req));
  pump();
  arm_lane_cutoff(t, version);
  maybe_finish();
}

std::size_t ServeEngine::total_queued() const {
  std::size_t q = 0;
  for (const auto& ts : tenants_) q += ts->batcher.queued();
  return q;
}

void ServeEngine::pump() {
  const double now = engine_.now();
  while (busy_workers_ < autoscaler_.active()) {
    // Oldest ready head across tenants; ties break toward the lower tenant
    // index (strict <), then the batcher's own lower-version tie-break.
    std::optional<std::size_t> best_t;
    double best_arrival = 0.0;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      const auto head = tenants_[t]->batcher.ready_head_arrival(now);
      if (!head) continue;
      if (!best_t || *head < best_arrival) {
        best_t = t;
        best_arrival = *head;
      }
    }
    if (!best_t) return;
    const auto version = tenants_[*best_t]->batcher.ready_version(now);
    dispatch_batch(*best_t, *version);
  }
}

void ServeEngine::dispatch_batch(std::size_t t, std::uint64_t version) {
  auto& ts = *tenants_[t];
  const double now = engine_.now();
  InflightBatch& b = ts.take_batch();
  ts.batcher.take(version, b.reqs);
  const std::size_t n = b.reqs.size();
  // The remainder lane (if any) has a new head; move its cutoff.
  arm_lane_cutoff(t, version);

  auto acq = pool_.acquire(now);
  STELLARIS_CHECK_MSG(acq.has_value(),
                      "serve pool exhausted below autoscale ceiling");
  ++busy_workers_;
  ++ts.batches;
  ts.batched_requests += n;

  // -- capture (engine thread): fate, snapshot, inputs ---------------------
  const auto fate =
      injector_.on_invocation(static_cast<int>(serverless::FnKind::kServe));
  auto policy = store_.load(ts.policy_key(version));

  const auto& lat = cfg_.latency;
  const double transfer_s =
      lat.transfer_s(serverless::DataTier::kRpc,
                     n * ts.cfg.obs_dim * sizeof(float)) +
      lat.transfer_s(serverless::DataTier::kRpc,
                     n * ts.cfg.act_dim * sizeof(float)) +
      fate.cache_delay_s;
  const double compute_s =
      lat.jittered(lat.serve_compute_s(n, policy.snap->params.size()) *
                       policy.cost_mult,
                   jitter_rng_) *
      fate.straggler_mult;
  const double full_s = lat.invoke_overhead_s + acq->start_latency_s +
                        transfer_s + compute_s;

  b.tenant = t;
  b.version = version;
  b.lid = next_lid_++;
  b.container = acq->container_id;
  b.cold = acq->cold;
  b.ok = fate.fail == fault::ErrorKind::kNone;
  b.error = fate.fail;
  b.compute_s = compute_s;
  // Crashes bill the fraction of the work done before dying; everything
  // else (including cache errors, discovered at the end) bills in full.
  b.billed_s = fate.fail == fault::ErrorKind::kCrash ? full_s * fate.fail_frac
                                                     : full_s;

  if (b.ok) {
    b.snap = std::move(policy.snap);
    b.contexts = &ts.contexts;
    b.obs_dim = ts.cfg.obs_dim;
    // -- body: pure function of the capture; runs wherever the driver says.
    b.job = engine_.driver().submit([batch = &b] {
      auto ctx = batch->contexts->lease();
      batch->box.loaded = ctx->load(batch->snap);
      // Gather the requests' observations into one (n, obs_dim) matrix.
      Tensor& obs = ctx->obs;
      obs.ensure_shape({batch->reqs.size(), batch->obs_dim});
      float* row = obs.data().data();
      for (const auto& req : batch->reqs)
        row = std::copy(req.obs.begin(), req.obs.end(), row);
      const Tensor& acts = ctx->model.policy_forward(obs);
      double checksum = 0.0;
      for (const float a : acts.vec()) checksum += static_cast<double>(a);
      const Tensor& values = ctx->model.value_forward(obs);
      batch->box.values.assign(values.vec().begin(), values.vec().end());
      batch->box.checksum = checksum;
    });
  }

  engine_.schedule_after(b.billed_s, [this, batch = &b] {
    settle_batch(*batch);
  });
}

void ServeEngine::settle_batch(InflightBatch& b) {
  auto& ts = *tenants_[b.tenant];
  const double now = engine_.now();

  if (b.error == fault::ErrorKind::kCrash) {
    // The runtime died; its in-flight requests die with it (and only them).
    pool_.kill(b.container);
  } else {
    pool_.release(b.container, now);
  }
  costs_.record(serverless::FnKind::kServe, unit_price_, b.billed_s, !b.ok);

  const std::size_t n = b.reqs.size();
  if (b.ok) {
    // -- merge (engine thread): join the body, publish its outputs.
    sim::Driver::join(b.job);
    for (std::size_t i = 0; i < n; ++i) {
      const double latency = now - b.reqs[i].arrival_s;
      ts.latencies.push_back(latency);
      ts.latency_sum_s += latency;
      ts.rollout.observe(b.version, latency, b.box.values[i]);
    }
    ts.completed += n;
    ts.value_checksum += b.box.checksum;
    if (b.box.loaded) ++model_loads_;
  } else {
    ts.failed += n;
  }

  if (auto* led = obs::ledger()) {
    // An ok batch's latencies are the last n appended above; a failed one
    // has none.
    const std::vector<double> latencies(
        ts.latencies.end() - static_cast<std::ptrdiff_t>(b.ok ? n : 0),
        ts.latencies.end());
    led->append(obs::LedgerEvent("serve_batch", now)
                    .field("tenant", ts.cfg.name)
                    .field("lid", b.lid)
                    .field("container", b.container)
                    .field("version", b.version)
                    .field("n", n)
                    .field("cold", b.cold)
                    .field("compute_s", b.compute_s)
                    .field("billed_s", b.billed_s)
                    .field("cost_usd", unit_price_ * b.billed_s)
                    .field("ok", b.ok)
                    .field("error", fault::error_kind_name(b.error))
                    .raw("lat", obs::render_number_array(latencies))
                    .finish());
  }

  // Closed-loop clients continue whether their request succeeded or died.
  // Each emptied obs buffer goes back to the tenant for reuse, and the
  // batch goes back for the next dispatch.
  for (auto& req : b.reqs) {
    ts.traffic.on_complete(req.client);
    req.obs.clear();
    ts.spare_obs.push_back(std::move(req.obs));
  }
  b.reqs.clear();
  b.snap.reset();
  b.job.reset();
  ts.free_batches.push_back(&b);

  --busy_workers_;
  pump();
  maybe_finish();
}

void ServeEngine::arm_lane_cutoff(std::size_t t, std::uint64_t version) {
  auto& ts = *tenants_[t];
  const auto head = ts.batcher.head_arrival(version);
  if (!head) {
    cancel_lane_cutoff(ts, version);
    return;
  }
  const double deadline = *head + ts.cfg.batch.max_wait_s;
  if (deadline <= engine_.now()) {
    // Already expired: the lane is dispatchable now; pump()s triggered by
    // worker-free and autoscale events will take it. No timer needed.
    cancel_lane_cutoff(ts, version);
    return;
  }
  Cutoff* timer = ts.find_cutoff(version);
  if (timer == nullptr) {
    timer = &ts.cutoffs.emplace_back();
    timer->version = version;
  } else if (timer->head_arrival == *head) {
    return;  // still right
  } else {
    engine_.cancel(timer->handle);
  }
  timer->head_arrival = *head;
  timer->handle = engine_.schedule_cancellable_at(deadline, [this, t, version] {
    tenants_[t]->erase_cutoff(version);
    pump();
    // If no worker was free the lane stays expired; the next worker-free or
    // scale-up pump dispatches it (no re-arm at a past deadline).
  });
}

void ServeEngine::cancel_lane_cutoff(TenantState& ts, std::uint64_t version) {
  if (Cutoff* c = ts.find_cutoff(version)) engine_.cancel(c->handle);
  ts.erase_cutoff(version);
}

void ServeEngine::arm_autoscale_timer() {
  if (finished_) return;
  autoscale_timer_ =
      engine_.schedule_cancellable_after(cfg_.autoscale.eval_period_s, [this] {
        const auto d = autoscaler_.evaluate(total_queued(), busy_workers_);
        if (d.changed()) {
          if (d.to > d.from) pool_.prewarm(d.to - d.from, engine_.now());
          if (auto* led = obs::ledger())
            led->append(obs::LedgerEvent("serve_scale", engine_.now())
                            .field("from", d.from)
                            .field("to", d.to)
                            .field("queued", total_queued())
                            .field("busy", busy_workers_)
                            .finish());
          pump();
        }
        arm_autoscale_timer();
      });
}

void ServeEngine::arm_rollout_timer(std::size_t t) {
  if (finished_) return;
  auto& ts = *tenants_[t];
  ts.rollout_timer = engine_.schedule_cancellable_after(
      ts.cfg.rollout.eval_period_s, [this, t] {
        evaluate_rollout(t);
        arm_rollout_timer(t);
      });
}

void ServeEngine::evaluate_rollout(std::size_t t) {
  auto& ts = *tenants_[t];
  if (!ts.rollout.canary_active()) return;
  const auto out = ts.rollout.evaluate();
  if (out.action == RolloutController::Action::kNone) return;
  const char* action =
      out.action == RolloutController::Action::kPromote    ? "promote"
      : out.action == RolloutController::Action::kRollback ? "rollback"
                                                           : "continue";
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("serve_rollout", engine_.now())
                    .field("tenant", ts.cfg.name)
                    .field("action", action)
                    .field("version", ts.rollout.stable_version())
                    .field("reason", out.reason)
                    .field("canary_p99_s", out.canary_p99)
                    .field("stable_p99_s", out.stable_p99)
                    .field("drift", out.drift)
                    .field("canary_n", out.canary_n)
                    .finish());
}

void ServeEngine::maybe_finish() {
  if (finished_) return;
  for (const auto& ts : tenants_)
    if (!ts->traffic.done()) return;
  if (busy_workers_ > 0 || total_queued() > 0) return;
  finished_ = true;
  // Cancel every pending timer so dead periodic events do not stretch the
  // run's virtual makespan (DESIGN.md §14 teardown discipline).
  engine_.cancel(autoscale_timer_);
  for (auto& ts : tenants_) {
    engine_.cancel(ts->rollout_timer);
    for (const auto& cutoff : ts->cutoffs) engine_.cancel(cutoff.handle);
    ts->cutoffs.clear();
  }
  injector_.disarm();
}

ServeResult ServeEngine::run() {
  STELLARIS_CHECK_MSG(!ran_, "ServeEngine::run() may be called once");
  ran_ = true;
  obs::begin_run();
  // Concurrent bodies each run kernels; keep the product under the machine.
  ops::apply_driver_thread_budget(driver_->worker_threads(),
                                  cfg_.hardware_threads);
  pool_.prewarm(cfg_.autoscale.min_workers, 0.0);
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("serve_start", 0.0)
                    .field("workers", cfg_.autoscale.min_workers)
                    .field("tenants", tenants_.size())
                    .finish());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    tenants_[t]->traffic.start(
        [this, t](std::uint64_t client) { on_arrival(t, client); });
    arm_rollout_timer(t);
  }
  arm_autoscale_timer();
  engine_.run();
  driver_->drain();

  ServeResult res;
  res.duration_s = engine_.now();
  for (auto& ts : tenants_) {
    TenantResult tr;
    tr.name = ts->cfg.name;
    tr.issued = ts->traffic.issued();
    tr.admitted = ts->admission.admitted();
    tr.rejected = ts->admission.rejected();
    tr.completed = ts->completed;
    tr.failed = ts->failed;
    tr.batches = ts->batches;
    tr.mean_batch = ts->batches > 0 ? static_cast<double>(ts->batched_requests) /
                                          static_cast<double>(ts->batches)
                                    : 0.0;
    tr.p50_s = nearest_rank_select(ts->latencies, 0.50);
    tr.p99_s = nearest_rank_select(ts->latencies, 0.99);
    tr.p999_s = nearest_rank_select(ts->latencies, 0.999);
    tr.latency_sum_s = ts->latency_sum_s;
    tr.value_checksum = ts->value_checksum;
    tr.final_stable_version = ts->rollout.stable_version();
    tr.promotions = ts->rollout.promotions();
    tr.rollbacks = ts->rollout.rollbacks();
    res.issued += tr.issued;
    res.completed += tr.completed;
    res.failed += tr.failed;
    res.rejected += tr.rejected;
    res.tenants.push_back(std::move(tr));
  }
  res.cost_usd = costs_.total_cost();
  res.wasted_cost_usd = costs_.total_wasted_cost();
  res.requests_per_hour = res.duration_s > 0.0
                              ? static_cast<double>(res.completed) /
                                    res.duration_s * 3600.0
                              : 0.0;
  res.cost_per_million = res.completed > 0
                             ? res.cost_usd * 1e6 /
                                   static_cast<double>(res.completed)
                             : 0.0;
  res.peak_workers = autoscaler_.peak();
  res.scale_ups = autoscaler_.scale_ups();
  res.scale_downs = autoscaler_.scale_downs();
  res.cold_starts = pool_.cold_starts();
  res.warm_starts = pool_.warm_starts();
  res.policy_decodes = store_.decodes();
  res.policy_reuses = store_.reuses();
  res.crashes_injected = injector_.crashes_injected();
  res.model_loads = model_loads_;
  return res;
}

}  // namespace stellaris::serve
