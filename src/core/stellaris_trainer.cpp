#include "core/stellaris_trainer.hpp"

#include <algorithm>
#include <cmath>

#include "core/kl_probe.hpp"
#include "core/learner_update.hpp"
#include "core/run_setup.hpp"
#include "rl/gae.hpp"
#include "rl/impact.hpp"
#include "rl/ppo.hpp"
#include "rl/sample_batch.hpp"
#include "tensor/kernel_config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace stellaris::core {

namespace {
ParameterFunction::Config param_fn_config(const TrainConfig& cfg) {
  ParameterFunction::Config pc;
  // Learners run their local SGD epochs with the algorithm's Adam at α₀ and
  // submit cumulative parameter deltas; the parameter function therefore
  // applies the aggregated (staleness-weighted, truncation-scaled) delta
  // directly — SGD with unit rate. Eq. 4's α_c modulation is realized by
  // the δ^{-1/v} weight on each delta.
  pc.alpha0 = 1.0;
  pc.optimizer = "sgd";
  pc.smooth_v = cfg.smooth_v;
  pc.rho = cfg.ratio_rho;
  // Deltas are already trust-region bounded by the learner-side clip; the
  // parameter-function norm guard only needs to catch pathological groups.
  pc.max_grad_norm = 1e3;
  switch (cfg.aggregation) {
    case AggregationMode::kStellaris:
      pc.enable_truncation = cfg.enable_truncation;
      pc.enable_staleness_lr = cfg.enable_staleness_lr;
      break;
    case AggregationMode::kSoftsync:
      // Zhang et al. 2016: α/τ modulation (v = 1), no cross-learner view.
      pc.enable_truncation = false;
      pc.enable_staleness_lr = true;
      pc.smooth_v = 1.0;
      break;
    case AggregationMode::kSsp:
    case AggregationMode::kPureAsync:
      pc.enable_truncation = false;
      pc.enable_staleness_lr = false;
      break;
  }
  return pc;
}
}  // namespace

StellarisTrainer::StellarisTrainer(TrainConfig cfg)
    : cfg_((cfg.validate(), std::move(cfg))),
      env_spec_(envs::env_spec(cfg_.env_name)),
      net_spec_(spec_for(env_spec_, cfg_.network_width)),
      schedule_(cfg_.aggregation == AggregationMode::kStellaris ? cfg_.decay_d
                                                                : 1.0,
                1.0, cfg_.staleness_floor) {
  // New trace namespace for this run; the platform's tracks inherit it.
  obs::begin_run();
  trace_tag_ = obs::run_tag();
  {
    auto& m = obs::metrics();
    m_staleness_ = &m.histogram("trainer.staleness", 0.0, 64.0, 128);
    m_update_kl_ = &m.histogram("trainer.update_kl", 0.0, 0.2, 100);
    m_grad_queue_depth_ = &m.gauge("trainer.gradient_queue_depth");
    m_pending_trajs_ = &m.gauge("trainer.pending_trajectories");
    m_rounds_ = &m.counter("trainer.rounds");
    m_round_kl_ = &m.gauge("trainer.round_kl");
    m_round_reward_ = &m.gauge("trainer.round_reward");
    m_checkpoints_ = &m.counter("trainer.checkpoints");
    m_restores_ = &m.counter("trainer.restores");
    m_policy_decodes_ = &m.counter("trainer.policy_decodes");
    m_policy_pull_reuses_ = &m.counter("trainer.policy_pull_reuses");
  }
  platform_ = std::make_unique<serverless::ServerlessPlatform>(
      engine_, cfg_.cluster, cfg_.latency, cfg_.seed ^ 0x9e37ULL);
  if (cfg_.faults.any()) {
    injector_ = std::make_unique<fault::FaultInjector>(engine_, cfg_.faults);
    platform_->set_fault_injector(injector_.get());
  }
  data_loader_ = std::make_unique<serverless::GpuDataLoader>(
      cfg_.latency, cfg_.seed ^ 0x10adULL);

  auto build_model = [&](std::uint64_t salt) {
    return std::make_unique<nn::ActorCritic>(
        env_spec_.obs, env_spec_.action_kind, env_spec_.act_dim, net_spec_,
        cfg_.seed ^ salt);
  };
  // Single weight initialization: the parameter function owns the canonical
  // weights; every scratch model gets overwritten from snapshots anyway.
  auto canonical = build_model(0x11);
  auto pf_cfg = param_fn_config(cfg_);
  const auto [ls_off, ls_len] = canonical->log_std_span();
  pf_cfg.clamp_offset = ls_off;
  pf_cfg.clamp_len = ls_len;
  param_fn_ = std::make_unique<ParameterFunction>(canonical->flat_params(),
                                                  pf_cfg);
  actor_model_ = build_model(0x22);
  probe_model_ = build_model(0x55);
  ctx_pool_ = std::make_unique<WorkerContextPool>(env_spec_, net_spec_,
                                                  cfg_.seed ^ 0x66ULL);
  target_params_ =
      std::make_shared<const std::vector<float>>(param_fn_->params());

  actors_ = make_actor_fleet(cfg_);
  eval_env_ = envs::make_env(cfg_.env_name);

  // Execution driver (DESIGN.md §14): the event engine keeps sole authority
  // over ordering; the driver only decides WHERE invocation bodies compute.
  actor_chain_.resize(cfg_.num_actors);
  driver_ = sim::make_driver(cfg_.driver,
                             sim::resolve_driver_threads(cfg_.driver_threads));
  engine_.set_driver(driver_.get());
  if (driver_->worker_threads() > 0)
    ops::apply_driver_thread_budget(driver_->worker_threads());

  // Round-0 calibration window: one gradient from (roughly) each actor wave
  // aggregated unconditionally to measure δ_max (§V-C).
  calib_target_ = std::max<std::size_t>(2, std::min<std::size_t>(
                                               cfg_.num_actors, 8));
}

StellarisTrainer::~StellarisTrainer() = default;

std::size_t StellarisTrainer::learner_limit() const {
  const std::size_t slots = cfg_.cluster.learner_slots();
  if (cfg_.max_learners == 0) return slots;
  return std::min(cfg_.max_learners, slots);
}

namespace {
/// Virtual-time deadline on the trainer's protocol-guaranteed cache reads.
/// These keys are always published before the read fires, so the deadline
/// only trips on a protocol violation — a hard error, not a retry case.
constexpr double kCacheReadDeadlineS = 30.0;
}  // namespace

StellarisTrainer::PolicyRef StellarisTrainer::latest_policy() {
  const auto value = cache_.get_blocking(keys::kPolicyLatest, 0, engine_,
                                         kCacheReadDeadlineS);
  if (!value)
    throw CacheError("policy/latest missing past its virtual deadline");
  // Version-gated pull: the cache entry's put counter tells us whether the
  // bytes changed since the last decode. Unchanged ⇒ every concurrent
  // puller shares the previously decoded (immutable) snapshot; the decode
  // runs once per published policy version.
  if (decoded_policy_ && value->version == decoded_policy_entry_version_) {
    m_policy_pull_reuses_->add();
    return decoded_policy_;
  }
  auto snap = std::make_shared<PolicySnapshot>();
  snap->version = decode_policy_into(value->bytes(), snap->params);
  decoded_policy_ = std::move(snap);
  decoded_policy_entry_version_ = value->version;
  m_policy_decodes_->add();
  return decoded_policy_;
}

obs::TrackId StellarisTrainer::trainer_track(obs::TraceRecorder* tr) const {
  return tr->track(trace_tag_ + "/trainer");
}

void StellarisTrainer::note_grad_queue_depth() {
  const double depth = static_cast<double>(queue_.size());
  m_grad_queue_depth_->set(depth);
  if (auto* tr = obs::trace())
    tr->counter(trace_tag_ + "/gradient_queue_depth", engine_.now(), depth);
  if (auto* ts = obs::timeseries())
    ts->sample("trainer.gradient_queue_depth", engine_.now(), depth);
}

void StellarisTrainer::note_pending_trajs() {
  const double depth = static_cast<double>(pending_trajs_.size());
  m_pending_trajs_->set(depth);
  if (auto* tr = obs::trace())
    tr->counter(trace_tag_ + "/pending_trajectories", engine_.now(), depth);
  if (auto* ts = obs::timeseries())
    ts->sample("trainer.pending_trajectories", engine_.now(), depth);
}

TrainResult StellarisTrainer::train() {
  auto* tr = obs::trace();
  obs::ScopedSpan train_span(
      tr, tr ? trainer_track(tr) : 0, "train", "trainer",
      [this] { return engine_.now(); },
      {{"env", cfg_.env_name},
       {"actors", cfg_.num_actors},
       {"rounds", cfg_.rounds}});
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("run_begin", engine_.now())
                    .field("env", cfg_.env_name)
                    .field("algo", algorithm_name(cfg_.algorithm))
                    .field("aggregation",
                           aggregation_mode_name(cfg_.aggregation))
                    .field("actors", cfg_.num_actors)
                    .field("rounds", cfg_.rounds)
                    .field("seed", cfg_.seed)
                    .finish());
  cache_.put(keys::kPolicyLatest, encode_policy(param_fn_->params(), 0));
  // Seed checkpoint so a parameter-function crash before the first periodic
  // checkpoint still has something to restore from.
  if (effective_checkpoint_interval() > 0) {
    cache_.put(keys::kCheckpoint,
               encode_checkpoint(param_fn_->serialize_state()));
    ++checkpoints_written_;
    m_checkpoints_->add();
  }
  if (cfg_.prewarm) {
    platform_->prewarm_learners(learner_limit() + 1);
    platform_->prewarm_actors(cfg_.num_actors);
  }
  for (std::size_t i = 0; i < cfg_.num_actors; ++i) launch_actor(i);
  engine_.run();
  // Reap any bodies abandoned by the fault plane (killed attempts whose
  // results were discarded) before tearing state down.
  driver_->drain();

  // ---- finalize telemetry ----------------------------------------------------
  result_.total_time_s = engine_.now();
  const auto& costs = platform_->costs();
  result_.learner_cost_usd = costs.cost(serverless::FnKind::kLearner);
  result_.actor_cost_usd = costs.cost(serverless::FnKind::kActor);
  result_.parameter_cost_usd = costs.cost(serverless::FnKind::kParameter);
  result_.total_cost_usd = costs.total_cost();
  result_.gpu_utilization = platform_->gpu_utilization();
  result_.learner_busy_s =
      costs.busy_seconds(serverless::FnKind::kLearner);
  result_.cold_starts = platform_->learner_cold_starts();
  result_.warm_starts = platform_->learner_warm_starts();
  result_.learner_invocations =
      costs.invocations(serverless::FnKind::kLearner);
  result_.staleness_samples = param_fn_->staleness_history();
  result_.delta_max = schedule_.delta_max();

  // Fault-plane telemetry (all zero when no faults were configured).
  if (injector_) {
    result_.faults.crashes = injector_->crashes_injected();
    result_.faults.vm_reclaims = injector_->reclaims_fired();
    result_.faults.stragglers = injector_->stragglers_injected();
    result_.faults.cache_faults = injector_->cache_faults_injected();
    result_.faults.cache_delays = injector_->cache_delays_injected();
  }
  result_.faults.failed_invocations = costs.total_failed_invocations();
  result_.faults.retries = platform_->retries();
  result_.faults.giveups = platform_->giveups();
  result_.faults.checkpoints = checkpoints_written_;
  result_.faults.restores = restores_;
  result_.faults.wasted_cost_usd = costs.total_wasted_cost();
  result_.faults.wasted_seconds =
      costs.wasted_seconds(serverless::FnKind::kLearner) +
      costs.wasted_seconds(serverless::FnKind::kParameter) +
      costs.wasted_seconds(serverless::FnKind::kActor);
  result_.faults.retry_wait_s = retry_wait_accum_;

  result_.summarize_rewards();
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("run_end", engine_.now())
                    .field("rounds", result_.rounds.size())
                    .field("total_cost_usd", result_.total_cost_usd)
                    .field("wasted_cost_usd", result_.faults.wasted_cost_usd)
                    .field("failed_invocations",
                           result_.faults.failed_invocations)
                    .field("retries", result_.faults.retries)
                    .field("giveups", result_.faults.giveups)
                    .field("final_reward", result_.final_reward)
                    .finish());
  return std::move(result_);
}

void StellarisTrainer::launch_actor(std::size_t actor_idx) {
  if (done_) return;
  auto pulled = std::make_shared<PolicyRef>();
  auto body_out = std::make_shared<std::shared_ptr<ActorBodyResult>>();

  serverless::ServerlessPlatform::InvokeOptions opts;
  opts.kind = serverless::FnKind::kActor;
  opts.ledger_id = next_lid_++;
  opts.compute_s = cfg_.latency.actor_sample_s(
      cfg_.horizon * cfg_.envs_per_actor, env_spec_.obs.image);
  opts.payload_in_bytes = param_fn_->param_dim() * sizeof(float);
  opts.payload_out_bytes = cfg_.horizon * cfg_.envs_per_actor *
                           (env_spec_.obs.flat_dim + 8) * sizeof(float);
  opts.tier = serverless::DataTier::kCache;
  opts.span_name = "actor_sampling";
  // Step ①: pull the latest policy when the actor starts. Fires once per
  // retry attempt, so a re-invoked actor samples under a FRESH snapshot.
  opts.on_start = [this, pulled](double) { *pulled = latest_policy(); };
  // Body: real sampling under the snapshot policy, on whichever thread the
  // driver provides. Inputs (policy snapshot, RNG key) are captured here on
  // the engine thread; the body touches only its leased context, the
  // stateful Actor (serialized by the per-actor `after` chain), and its own
  // result box — never the engine, cache, or ledger (DESIGN.md §14).
  opts.spawn_body = [this, actor_idx, pulled, body_out,
                     lid = opts.ledger_id](std::size_t attempt)
      -> sim::Driver::Job {
    const PolicyRef snapshot = *pulled;
    auto out = std::make_shared<ActorBodyResult>();
    *body_out = out;
    const std::uint64_t stream =
        sim::invocation_stream(cfg_.seed, lid, attempt);
    auto job = engine_.driver().submit(
        [this, actor_idx, snapshot, out, stream] {
          auto ctx = ctx_pool_->lease();
          ctx->model.set_flat_params(snapshot->params);
          Rng inv_rng(stream);
          const rl::SampleBatch batch = actors_[actor_idx]->sample(
              ctx->model, ctx->vec_scratch, cfg_.horizon, snapshot->version,
              inv_rng);
          out->bytes = batch.serialize();
        },
        actor_chain_[actor_idx]);
    actor_chain_[actor_idx] = job;
    return job;
  };
  platform_->invoke_retrying(
      opts, cfg_.retry,
      [this, actor_idx, lid = opts.ledger_id, pulled,
       body_out](const auto& r) {
        on_actor_complete(actor_idx, lid, pulled, body_out, r);
      });
}

void StellarisTrainer::on_actor_complete(
    std::size_t actor_idx, std::uint64_t lid, const PolicyPull& pulled,
    const BodyBox<ActorBodyResult>& body_out,
    const serverless::ServerlessPlatform::InvokeResult& r) {
  retry_wait_accum_ += r.retry_wait_s;
  if (!r.ok) {
    // Retry chain exhausted: the sampled work is lost. The actor itself is
    // stateless, so just launch a fresh invocation chain.
    LOG_DEBUG << "actor " << actor_idx << " gave up ("
              << fault::error_kind_name(r.error) << " after " << r.attempts
              << " attempts); relaunching";
    if (!done_) launch_actor(actor_idx);
    return;
  }
  result_.breakdown.actor_sample_s += r.compute_s + r.start_latency_s;
  result_.breakdown.data_load_s += r.transfer_s;

  // Merge section: the platform joined the body before this callback, so
  // the settling attempt's outputs are ready in its box.
  const PolicySnapshot& snapshot = **pulled;
  ActorBodyResult& body = **body_out;
  const std::uint64_t traj_id = next_traj_id_++;
  std::vector<std::uint8_t> bytes = std::move(body.bytes);
  // GPU data loader (§V-B): start the cache→GPU pre-load immediately so the
  // transfer overlaps learner queueing and startup.
  traj_loader_ids_[traj_id] =
      data_loader_->on_trajectory(engine_.now(), bytes.size());
  if (auto* tr = obs::trace())
    tr->instant(trainer_track(tr), "traj_published", "trainer", engine_.now(),
                {{"traj_id", traj_id},
                 {"actor", actor_idx},
                 {"policy_version", snapshot.version}});
  const std::size_t traj_bytes = bytes.size();
  cache_.put(keys::trajectory(traj_id), std::move(bytes));
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("traj", engine_.now())
                    .field("traj_id", traj_id)
                    .field("actor", actor_idx)
                    .field("inv", lid)
                    .field("policy_version", snapshot.version)
                    .field("bytes", traj_bytes)
                    .finish());
  cache_.sample_depth(engine_.now());
  pending_trajs_.push_back(traj_id);
  note_pending_trajs();
  maybe_launch_learner();

  // Continuous sampling with backpressure: serverless actors are
  // event-driven, so when trajectories already outnumber what the learner
  // fleet can consume, the actor is not re-invoked until demand returns
  // (the paper's "appropriate number of functions according to demand").
  if (pending_trajs_.size() >= 2 * learner_limit() * cfg_.trajs_per_learner)
    paused_actors_.push_back(actor_idx);
  else
    launch_actor(actor_idx);
}

bool StellarisTrainer::ssp_blocks_launch() const {
  if (cfg_.aggregation != AggregationMode::kSsp) return false;
  if (inflight_pulled_versions_.empty()) return false;
  const std::uint64_t slowest = *inflight_pulled_versions_.begin();
  return static_cast<double>(param_fn_->version() - slowest) > cfg_.ssp_bound;
}

void StellarisTrainer::maybe_launch_learner() {
  // d = 0 (forced synchronization): one learner cohort at a time — no new
  // launches while gradients await the barrier or an update is in flight.
  const bool sync_mode = cfg_.aggregation == AggregationMode::kStellaris &&
                         schedule_.calibrated() && cfg_.decay_d == 0.0;
  while (!done_ && active_learners_ < learner_limit() &&
         pending_trajs_.size() >= cfg_.trajs_per_learner &&
         !ssp_blocks_launch() &&
         !(sync_mode && (param_fn_busy_ || !queue_.empty()))) {
    std::vector<std::uint64_t> traj_ids;
    std::size_t batch_timesteps = 0;
    double preload_wait_s = 0.0;
    for (std::size_t i = 0; i < cfg_.trajs_per_learner; ++i) {
      traj_ids.push_back(pending_trajs_.front());
      pending_trajs_.pop_front();
    }
    note_pending_trajs();
    for (std::uint64_t id : traj_ids) {
      batch_timesteps += cfg_.horizon * cfg_.envs_per_actor;
      // The data loader has been pre-loading this batch since the actor
      // published it; the learner only pays the residual wait.
      auto it = traj_loader_ids_.find(id);
      if (it != traj_loader_ids_.end()) {
        preload_wait_s = std::max(
            preload_wait_s,
            data_loader_->learner_wait_s(it->second, engine_.now()));
        traj_loader_ids_.erase(it);
      }
    }
    result_.breakdown.data_load_s += preload_wait_s;
    ++active_learners_;
    const std::uint64_t learner_id = next_learner_id_++;
    auto pulled = std::make_shared<PolicyRef>();

    serverless::ServerlessPlatform::InvokeOptions opts;
    opts.kind = serverless::FnKind::kLearner;
    opts.ledger_id = next_lid_++;
    if (auto* led = obs::ledger())
      led->append(obs::LedgerEvent("learner_claim", engine_.now())
                      .field("learner_id", learner_id)
                      .field("lid", opts.ledger_id)
                      .raw("trajs", obs::render_id_array(traj_ids))
                      .finish());
    opts.compute_s = preload_wait_s +
                     cfg_.latency.learner_compute_s(
                         batch_timesteps, param_fn_->param_dim(),
                         cfg_.cluster.per_slot_tflops());
    opts.payload_in_bytes = param_fn_->param_dim() * sizeof(float);
    opts.payload_out_bytes = param_fn_->param_dim() * sizeof(float);
    opts.tier = serverless::DataTier::kCache;
    opts.span_name = "learner_compute";
    // Step ②: the learner pulls the latest policy at container start. Under
    // retries this fires once per attempt; the previous attempt's entry in
    // the in-flight version multiset must be withdrawn before the fresh
    // snapshot's version is inserted, or SSP gating would track ghosts.
    auto inserted = std::make_shared<std::optional<std::uint64_t>>();
    opts.on_start = [this, pulled, inserted](double) {
      if (inserted->has_value()) {
        auto it = inflight_pulled_versions_.find(**inserted);
        if (it != inflight_pulled_versions_.end())
          inflight_pulled_versions_.erase(it);
      }
      *pulled = latest_policy();
      inflight_pulled_versions_.insert((*pulled)->version);
      *inserted = (*pulled)->version;
    };
    // Body: the real gradient computation. Captured on the engine thread at
    // dispatch (= container start): the pulled policy, the IMPACT target
    // published at that instant, and refcounted views of the trajectory
    // payloads (the views outlive the cache erase at merge time). The body
    // itself touches only its leased context and its result box.
    auto body_out = std::make_shared<std::shared_ptr<LearnerBodyResult>>();
    opts.spawn_body = [this, pulled, body_out,
                       traj_ids](std::size_t) -> sim::Driver::Job {
      const PolicyRef snapshot = *pulled;
      auto target = target_params_;
      std::vector<cache::CacheValue> payloads;
      payloads.reserve(traj_ids.size());
      for (std::uint64_t id : traj_ids)
        payloads.push_back(cache_.get_or_throw(keys::trajectory(id)));
      auto out = std::make_shared<LearnerBodyResult>();
      *body_out = out;
      return engine_.driver().submit([this, snapshot, target, out,
                                      payloads = std::move(payloads)] {
        auto ctx = ctx_pool_->lease();
        ctx->payload_bytes.clear();
        for (const cache::CacheValue& payload : payloads)
          ctx->payload_bytes.push_back(payload.bytes());
        rl::SampleBatch& batch = ctx->batch;
        rl::SampleBatch::deserialize_concat_into(ctx->payload_bytes, batch);
        ctx->payload_bytes.clear();  // the views die with this body
        if (cfg_.algorithm == Algorithm::kImpact)
          ctx->target.set_flat_params(*target);
        out->update = compute_learner_update(cfg_, ctx->model, ctx->target,
                                             snapshot->params, batch);
        out->batch_size = batch.size();
        out->probe_obs = probe_rows(batch.obs);
      });
    };
    platform_->invoke_retrying(
        opts, cfg_.retry,
        [this, learner_id, lid = opts.ledger_id, pulled, body_out,
         traj_ids](const auto& r) {
          on_learner_complete(learner_id, lid, pulled, body_out, traj_ids, r);
        });
  }
  // Demand resumed: re-invoke backpressured actors.
  while (!paused_actors_.empty() &&
         pending_trajs_.size() <
             2 * learner_limit() * cfg_.trajs_per_learner) {
    const std::size_t idx = paused_actors_.back();
    paused_actors_.pop_back();
    launch_actor(idx);
  }
}

void StellarisTrainer::on_learner_complete(
    std::uint64_t learner_id, std::uint64_t lid, const PolicyPull& pulled,
    const BodyBox<LearnerBodyResult>& body_out,
    const std::vector<std::uint64_t>& traj_ids,
    const serverless::ServerlessPlatform::InvokeResult& r) {
  retry_wait_accum_ += r.retry_wait_s;
  {
    const std::uint64_t pulled_version = *pulled ? (*pulled)->version : 0;
    auto it = inflight_pulled_versions_.find(pulled_version);
    if (it != inflight_pulled_versions_.end())
      inflight_pulled_versions_.erase(it);
  }
  --active_learners_;

  if (!r.ok) {
    // Retry chain exhausted: the gradient is lost, but the trajectories are
    // still in the cache — requeue them (front, preserving order) so the
    // next learner slot picks them up.
    LOG_DEBUG << "learner " << learner_id << " gave up ("
              << fault::error_kind_name(r.error) << " after " << r.attempts
              << " attempts); requeueing " << traj_ids.size()
              << " trajectories";
    if (!done_) {
      for (auto it = traj_ids.rbegin(); it != traj_ids.rend(); ++it)
        pending_trajs_.push_front(*it);
      note_pending_trajs();
      if (auto* led = obs::ledger())
        led->append(obs::LedgerEvent("traj_requeue", engine_.now())
                        .field("learner_id", learner_id)
                        .field("lid", lid)
                        .raw("trajs", obs::render_id_array(traj_ids))
                        .finish());
    }
    maybe_launch_learner();
    return;
  }

  result_.breakdown.learner_start_s += r.start_latency_s;
  result_.breakdown.learner_compute_s += r.compute_s;
  result_.breakdown.grad_submit_s += r.transfer_s / 2.0;
  result_.breakdown.data_load_s += r.transfer_s / 2.0;

  if (!done_) {
    // Merge section: the body already computed the learner update (bounded
    // local Adam epochs; the submitted "gradient" is the cumulative
    // parameter delta θ_pulled − θ_local). The platform joined the body
    // before this callback; here we only publish its outputs. The cached
    // trajectory payloads were consumed by the body's captured views, so
    // the entries can be dropped now.
    for (std::uint64_t id : traj_ids) cache_.erase(keys::trajectory(id));
    const PolicySnapshot& snapshot = **pulled;
    LearnerBodyResult& body = **body_out;
    LearnerUpdate& update = body.update;
    const rl::LossStats& stats = update.stats;

    acc_learner_kl_ += stats.kl;
    acc_ratio_ += stats.mean_ratio;
    acc_vloss_ += stats.value_loss;
    acc_entropy_ += stats.entropy;
    ++acc_count_;

    GradientMsg msg;
    msg.grad = std::move(update.delta);
    msg.learner_id = learner_id;
    msg.pulled_version = snapshot.version;
    msg.mean_ratio = stats.mean_ratio;
    msg.batch_size = body.batch_size;
    msg.kl = stats.kl;
    msg.compute_time_s = r.compute_s;
    // Keyed by learner_id, the id aggregation and recovery erase by:
    // grad_id counts in settle order, which can differ from launch order.
    const std::uint64_t grad_id = next_grad_id_++;
    cache_.put(keys::gradient(learner_id), msg.serialize());
    if (auto* led = obs::ledger())
      led->append(
          obs::LedgerEvent("grad", engine_.now())
              .field("grad_id", grad_id)
              .field("learner_id", learner_id)
              .field("lid", lid)
              .field("pulled_version", msg.pulled_version)
              .field("version_now", param_fn_->version())
              .field("staleness", param_fn_->version() - msg.pulled_version)
              .finish());
    cache_.sample_depth(engine_.now());
    on_gradient(std::move(msg));

    // Keep a probe set of recent observations for the KL tracking.
    probe_obs_ = std::move(body.probe_obs);
  }
  maybe_launch_learner();
}

void StellarisTrainer::on_gradient(GradientMsg msg) {
  if (auto* tr = obs::trace())
    tr->instant(trainer_track(tr), "grad_enqueued", "trainer", engine_.now(),
                {{"learner_id", msg.learner_id},
                 {"pulled_version", msg.pulled_version},
                 {"staleness_now",
                  param_fn_->version() - msg.pulled_version}});
  if (auto* ts = obs::timeseries())
    ts->sample("trainer.staleness", engine_.now(),
               static_cast<double>(param_fn_->version() -
                                   msg.pulled_version));
  queue_.push(std::move(msg), engine_.now());
  note_grad_queue_depth();
  try_aggregate();
}

void StellarisTrainer::try_aggregate() {
  if (done_ || param_fn_busy_ || queue_.empty()) return;

  bool fire = false;
  last_gate_threshold_ = std::numeric_limits<double>::infinity();
  switch (cfg_.aggregation) {
    case AggregationMode::kStellaris: {
      if (!schedule_.calibrated()) {
        fire = true;  // round 0: threshold disabled, pure async
      } else {
        last_gate_threshold_ = schedule_.threshold(rounds_after_calib_);
        if (last_gate_threshold_ <= 0.0) {
          // d = 0: forced synchronization. A gradient in flight when an
          // update lands is always ≥ 1 version stale, so "mean ≤ 0" can
          // never be met with work outstanding — the sync semantics are a
          // barrier: wait for every in-flight learner, then aggregate the
          // whole cohort.
          fire = active_learners_ == 0;
        } else {
          fire = queue_.ready(param_fn_->version(), last_gate_threshold_);
        }
      }
      break;
    }
    case AggregationMode::kSoftsync:
      fire = queue_.size() >= cfg_.softsync_count;
      break;
    case AggregationMode::kSsp:
    case AggregationMode::kPureAsync:
      fire = true;
      break;
  }

  // Liveness fallback: if nothing is in flight that could freshen the
  // queue's mean staleness, aggregate rather than deadlock.
  if (!fire && active_learners_ == 0 && pending_trajs_.empty() &&
      cfg_.num_actors == 0)
    fire = true;

  if (fire) start_aggregation(queue_.drain());
}

void StellarisTrainer::start_aggregation(
    std::vector<GradientQueue::Item> group) {
  param_fn_busy_ = true;
  note_grad_queue_depth();  // queue was just drained into `group`
  serverless::ServerlessPlatform::InvokeOptions opts;
  opts.kind = serverless::FnKind::kParameter;
  opts.ledger_id = next_lid_++;
  if (auto* led = obs::ledger()) {
    std::vector<std::uint64_t> learner_ids;
    learner_ids.reserve(group.size());
    for (const auto& item : group) learner_ids.push_back(item.msg.learner_id);
    obs::LedgerEvent ev("agg_begin", engine_.now());
    ev.field("agg_id", opts.ledger_id)
        .field("version_before", param_fn_->version())
        .raw("group", obs::render_id_array(learner_ids));
    if (std::isfinite(last_gate_threshold_))
      ev.field("gate_threshold", last_gate_threshold_);
    led->append(std::move(ev).finish());
  }
  opts.compute_s =
      cfg_.latency.aggregate_s(group.size(), param_fn_->param_dim());
  opts.payload_in_bytes =
      group.size() * param_fn_->param_dim() * sizeof(float);
  opts.payload_out_bytes = param_fn_->param_dim() * sizeof(float);
  opts.tier = serverless::DataTier::kCache;
  opts.span_name = "gradient_aggregation";
  auto shared_group = std::make_shared<std::vector<GradientQueue::Item>>(
      std::move(group));
  platform_->invoke_retrying(opts, cfg_.retry, [this, shared_group,
                                                agg_lid = opts.ledger_id](
                                                   const auto& r) {
    retry_wait_accum_ += r.retry_wait_s;
    if (!r.ok) {
      recover_param_fn(*shared_group);
      return;
    }
    result_.breakdown.aggregate_s += r.compute_s + r.start_latency_s;
    result_.breakdown.broadcast_s += r.transfer_s;

    // Step ③: real aggregation + policy update.
    const std::uint64_t version_before = param_fn_->version();
    const std::vector<float> before = param_fn_->params();
    const auto stats = param_fn_->aggregate(*shared_group);
    std::vector<double> staleness;
    staleness.reserve(shared_group->size());
    for (const auto& item : *shared_group) {
      staleness.push_back(static_cast<double>(
          version_before - std::min(item.msg.pulled_version, version_before)));
      m_staleness_->observe(staleness.back());
    }
    for (const auto& item : *shared_group)
      cache_.erase(keys::gradient(item.msg.learner_id));
    cache_.put(keys::kPolicyLatest,
               encode_policy(param_fn_->params(), stats.new_version));
    if (auto* led = obs::ledger())
      led->append(obs::LedgerEvent("agg_end", engine_.now())
                      .field("agg_id", agg_lid)
                      .field("version", stats.new_version)
                      .field("group_size", shared_group->size())
                      .field("mean_staleness", stats.mean_staleness)
                      .raw("staleness", obs::render_number_array(staleness))
                      .finish());
    cache_.sample_depth(engine_.now());
    maybe_checkpoint(stats.new_version);

    // IMPACT target network refresh (published as a fresh immutable
    // snapshot; in-flight bodies keep the one they captured at dispatch).
    if (cfg_.algorithm == Algorithm::kImpact) {
      if (++updates_since_target_ >= cfg_.impact.target_update_freq) {
        target_params_ =
            std::make_shared<const std::vector<float>>(param_fn_->params());
        updates_since_target_ = 0;
      }
    }

    // KL of this policy update (Fig. 3(c)).
    double round_kl = 0.0;
    if (!probe_obs_.empty())
      round_kl = policy_update_kl(*probe_model_, before, param_fn_->params(),
                                  probe_obs_);
    result_.update_kls.push_back(round_kl);

    if (!schedule_.calibrated()) {
      schedule_.observe_round0(stats.max_staleness);
      if (++calib_updates_ >= calib_target_) schedule_.finalize_round0();
    } else {
      ++rounds_after_calib_;
    }

    param_fn_busy_ = false;
    finish_round(stats, round_kl);
    try_aggregate();
    maybe_launch_learner();  // sync mode resumes launches after the barrier
  });
}

std::size_t StellarisTrainer::effective_checkpoint_interval() const {
  if (cfg_.checkpoint_interval > 0) return cfg_.checkpoint_interval;
  // Fault plan active: checkpoint every 10 policy updates by default.
  return cfg_.faults.any() ? 10 : 0;
}

void StellarisTrainer::maybe_checkpoint(std::uint64_t new_version) {
  const std::size_t interval = effective_checkpoint_interval();
  if (interval == 0 || new_version % interval != 0) return;
  cache_.put(keys::kCheckpoint, encode_checkpoint(param_fn_->serialize_state()));
  ++checkpoints_written_;
  m_checkpoints_->add();
  if (auto* tr = obs::trace())
    tr->instant(trainer_track(tr), "checkpoint", "fault", engine_.now(),
                {{"version", new_version}});
  if (auto* led = obs::ledger())
    led->append(obs::LedgerEvent("ckpt", engine_.now())
                    .field("version", new_version)
                    .finish());
}

void StellarisTrainer::recover_param_fn(
    const std::vector<GradientQueue::Item>& group) {
  // The aggregation invocation failed past its retry budget: the gradient
  // group is lost. Restore the parameter state from the latest checkpoint
  // (modelling a fresh parameter-function container that must reload its
  // state), republish the policy, and let the pipeline refill the queue.
  LOG_DEBUG << "parameter function failed; dropping " << group.size()
            << " gradients and restoring from checkpoint";
  if (const auto ckpt = cache_.get(keys::kCheckpoint)) {
    param_fn_->restore_state(decode_checkpoint(ckpt->bytes()));
    ++restores_;
    m_restores_->add();
    if (auto* tr = obs::trace())
      tr->instant(trainer_track(tr), "restore", "fault", engine_.now(),
                  {{"version", param_fn_->version()},
                   {"dropped_gradients", group.size()}});
    if (auto* led = obs::ledger())
      led->append(obs::LedgerEvent("restore", engine_.now())
                      .field("version", param_fn_->version())
                      .field("dropped", group.size())
                      .finish());
  }
  cache_.put(keys::kPolicyLatest,
             encode_policy(param_fn_->params(), param_fn_->version()));
  for (const auto& item : group)
    cache_.erase(keys::gradient(item.msg.learner_id));
  param_fn_busy_ = false;
  try_aggregate();
  maybe_launch_learner();
}

void StellarisTrainer::finish_round(
    const ParameterFunction::AggregateStats& stats, double round_kl) {
  RoundRecord rec;
  rec.round = ++rounds_completed_;
  rec.time_s = engine_.now();
  rec.mean_staleness = stats.mean_staleness;
  rec.staleness_threshold = last_gate_threshold_;
  rec.group_size = stats.group_size;
  rec.mean_lr_factor = stats.mean_lr_factor;
  rec.mean_trunc_scale = stats.mean_trunc_scale;
  rec.kl = round_kl;
  if (acc_count_ > 0) {
    const double inv = 1.0 / static_cast<double>(acc_count_);
    rec.learner_kl = acc_learner_kl_ * inv;
    rec.learner_ratio = acc_ratio_ * inv;
    rec.value_loss = acc_vloss_ * inv;
    rec.entropy = acc_entropy_ * inv;
    acc_learner_kl_ = acc_ratio_ = acc_vloss_ = acc_entropy_ = 0.0;
    acc_count_ = 0;
  }
  rec.cost_so_far_usd = platform_->costs().total_cost();
  rec.learner_invocations =
      platform_->costs().invocations(serverless::FnKind::kLearner);

  const bool last = rounds_completed_ >= cfg_.rounds;
  if (last || rounds_completed_ % cfg_.eval_interval == 0) {
    actor_model_->set_flat_params(param_fn_->params());
    rec.reward = rl::evaluate_policy(*eval_env_, *actor_model_,
                                     cfg_.eval_episodes,
                                     cfg_.seed * 104729 + rounds_completed_);
    rec.evaluated = true;
  }

  m_rounds_->add();
  m_round_kl_->set(round_kl);
  m_update_kl_->observe(round_kl);
  if (rec.evaluated) m_round_reward_->set(rec.reward);
  if (auto* tr = obs::trace()) {
    obs::TraceArgs args{{"round", rec.round},
                        {"group_size", rec.group_size},
                        {"mean_staleness", rec.mean_staleness},
                        {"kl", round_kl}};
    if (rec.evaluated) args.emplace_back("reward", rec.reward);
    tr->complete(tr->track(trace_tag_ + "/trainer/rounds"), "round", "round",
                 last_round_end_s_, rec.time_s, std::move(args));
  }
  if (auto* led = obs::ledger()) {
    obs::LedgerEvent ev("round", rec.time_s);
    ev.field("round", rec.round)
        .field("group_size", rec.group_size)
        .field("mean_staleness", rec.mean_staleness)
        .field("kl", rec.kl)
        .field("cost_so_far_usd", rec.cost_so_far_usd);
    if (rec.evaluated) ev.field("reward", rec.reward);
    led->append(std::move(ev).finish());
  }
  last_round_end_s_ = rec.time_s;
  result_.rounds.push_back(rec);

  if (last) {
    done_ = true;
    // Tear down the reclamation arrival process; its pending virtual-time
    // timers would otherwise keep the event loop alive and stretch the
    // measured makespan.
    if (injector_) injector_->disarm();
    LOG_DEBUG << "training done at virtual t=" << engine_.now() << "s, cost=$"
              << platform_->costs().total_cost();
  }
}

TrainResult run_training(const TrainConfig& cfg) {
  StellarisTrainer trainer(cfg);
  return trainer.train();
}

}  // namespace stellaris::core
