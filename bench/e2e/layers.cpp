#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>

#include "core/kl_probe.hpp"
#include "core/learner_update.hpp"
#include "core/parameter_function.hpp"
#include "core/policy_io.hpp"
#include "envs/vec_env.hpp"
#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "rl/actor.hpp"
#include "rl/gae.hpp"
#include "rl/vec_actor.hpp"
#include "rl/vtrace.hpp"
#include "serve/serve_context.hpp"
#include "tensor/ops.hpp"

namespace stellaris::e2e {
namespace {

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Host seconds per call of `fn`: the fastest of several samples after one
/// warm-up call (interference only ever slows a sample). Calls shorter than
/// 0.2 ms are repeated inside each sample so the clock's resolution does
/// not matter; the sample count fits a 0.15 s budget. A smoke run times the
/// single warm-up call.
double per_call_s(const std::function<void()>& fn, Scale scale) {
  const double first = std::max(time_once(fn), 1e-9);
  if (scale == Scale::kSmoke) return first;
  const int inner = std::clamp(static_cast<int>(2e-4 / first), 1, 10000);
  const int samples =
      std::clamp(static_cast<int>(0.15 / (first * inner)), 3, 25);
  double best = first;
  for (int s = 0; s < samples; ++s)
    best = std::min(best, time_once([&] {
                            for (int i = 0; i < inner; ++i) fn();
                          }) / inner);
  return best;
}

/// Registry counters after the measured repetition, read before the layer
/// calls below (which bump the same counters) run.
struct Counts {
  double actor = 0, learner = 0, parameter = 0, crashes = 0;
  double policy_decodes = 0, policy_reuses = 0;
  double cache_puts = 0, cache_gets = 0, cache_hits = 0, cache_misses = 0;
  double cache_bytes = 0;
  double gemm_flops = 0, eltwise_elems = 0, buffer_allocs = 0;
};

Counts read_counts(bool serve) {
  auto c = [](const char* name) {
    return static_cast<double>(obs::metrics().counter(name).value());
  };
  Counts n;
  n.actor = c("platform.invocations.actor");
  n.learner = c("platform.invocations.learner");
  n.parameter = c("platform.invocations.parameter");
  n.crashes = c("fault.crashes_injected");
  n.policy_decodes = c(serve ? "serve.policy_decodes" : "trainer.policy_decodes");
  n.policy_reuses =
      c(serve ? "serve.policy_reuses" : "trainer.policy_pull_reuses");
  n.cache_puts = c("cache.puts");
  n.cache_gets = c("cache.gets");
  n.cache_hits = c("cache.hits");
  n.cache_misses = c("cache.misses");
  n.cache_bytes = c("cache.bytes_written") + c("cache.bytes_read");
  n.gemm_flops = c("kernel.gemm_flops");
  n.eltwise_elems = c("kernel.eltwise_elems");
  n.buffer_allocs = c("tensor.buffer_allocs");
  return n;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// First-layer GEMM of the policy at `rows` inference rows: the MLP's
/// (rows, obs_dim)·(obs_dim, hidden), or the first convolution's im2col
/// product (rows·out_h·out_w, C·k²)·(C·k², out_channels).
struct GemmShape {
  std::size_t m = 0, k = 0, n = 0;
};

GemmShape first_layer_gemm(const nn::ObsSpec& obs, const nn::NetworkSpec& net,
                           std::size_t rows) {
  if (!net.use_cnn) return {rows, obs.flat_dim, net.hidden.front()};
  ops::Conv2dSpec c;
  c.in_channels = obs.channels;
  c.in_h = obs.height;
  c.in_w = obs.width;
  c.kernel = net.convs.front().kernel;
  c.stride = net.convs.front().stride;
  c.out_channels = net.convs.front().out_channels;
  return {rows * c.out_h() * c.out_w(), c.in_channels * c.kernel * c.kernel,
          c.out_channels};
}

/// Kernel rates at the workload's inference shape, shared by both kinds.
void kernel_rates(const nn::ObsSpec& obs, const nn::NetworkSpec& net,
                  std::size_t rows, Scale scale, Rng& rng, RunResult& out) {
  const GemmShape g = first_layer_gemm(obs, net, rows);
  Tensor a = Tensor::randn({g.m, g.k}, rng);
  Tensor b = Tensor::randn({g.k, g.n}, rng);
  Tensor c;
  const double gemm_s = per_call_s([&] { ops::matmul_into(c, a, b); }, scale);
  const std::size_t width = net.use_cnn ? net.fc_hidden : net.hidden.front();
  Tensor x = Tensor::randn({rows, width}, rng);
  Tensor y;
  const double tanh_s = per_call_s([&] { ops::tanh_forward_into(y, x); }, scale);
  out.metrics.push_back(
      {"tensor.gemm_gflops", "GFLOP/s",
       2.0 * static_cast<double>(g.m * g.k * g.n) / gemm_s * 1e-9});
  out.metrics.push_back({"tensor.tanh_gelems", "Gelem/s",
                         static_cast<double>(rows * width) / tanh_s * 1e-9});
}

/// Host seconds each layer spends per repetition, as modelled.
struct LayerSeconds {
  double envs = 0, nn = 0, rl = 0, core = 0, util = 0, cache = 0;
  double body = 0;  ///< the part that runs inside invocation bodies
};

/// Times the training layer calls at the workload's shapes and scales them
/// by the calls the measured repetition made.
LayerSeconds model_training(const Workload& w, std::uint64_t seed, Scale scale,
                            const Rep& ref, const Counts& n,
                            RunResult& out) {
  const auto cfg = train_config(w, seed, scale);
  const auto env = envs::env_spec(cfg.env_name);
  const nn::NetworkSpec net = env.obs.image
                                  ? nn::NetworkSpec::atari()
                                  : nn::NetworkSpec::mujoco(cfg.network_width);
  const std::size_t K = cfg.envs_per_actor, H = cfg.horizon;
  const std::size_t T = cfg.trajs_per_learner;
  const bool ppo = cfg.algorithm == core::Algorithm::kPpo;
  Rng rng(seed);
  nn::ActorCritic model(env.obs, env.action_kind, env.act_dim, net, seed);
  nn::ActorCritic target(env.obs, env.action_kind, env.act_dim, net, seed + 1);
  const std::vector<float> params = model.flat_params();
  target.set_flat_params(params);

  // rl: one actor invocation's rollout, and the trajectories a learner eats.
  rl::VecActor actor(std::make_unique<envs::VecEnv>(cfg.env_name, K, seed),
                     seed);
  rl::VecActorScratch scratch;
  std::vector<rl::SampleBatch> parts;
  for (std::size_t i = 0; i < T; ++i)
    parts.push_back(actor.sample(model, scratch, H, 0, rng));
  const double sample_s = per_call_s(
      [&] { (void)actor.sample(model, scratch, H, 0, rng); }, scale);

  // envs: single-env steps with random actions, 64 per call.
  auto single = envs::make_env(cfg.env_name);
  std::vector<float> obs_buf(env.obs.flat_dim), action(env.act_dim);
  std::uint64_t episode = 0;
  single->reset_into(seed, obs_buf);
  const double step_s =
      per_call_s(
          [&] {
            for (int i = 0; i < 64; ++i) {
              envs::StepOut o;
              if (env.action_kind == nn::ActionKind::kContinuous) {
                for (auto& a : action) a = static_cast<float>(rng.uniform(-1, 1));
                o = single->step_into(action, obs_buf);
              } else {
                o = single->step_discrete_into(rng.uniform_int(env.act_dim),
                                               obs_buf);
              }
              if (o.done) single->reset_into(seed + ++episode, obs_buf);
            }
          },
          scale) /
      64.0;

  // nn: the per-step rollout forward at (K, obs_dim).
  Tensor infer_obs = Tensor::randn({K, env.obs.flat_dim}, rng);
  const double infer_s = per_call_s(
      [&] {
        (void)model.policy_forward(infer_obs);
        (void)model.value_forward(infer_obs);
      },
      scale);

  // util + cache: one trajectory through the wire format and the cache.
  const std::vector<std::uint8_t> traj_bytes = parts.front().serialize();
  rl::SampleBatch decoded;
  const double ser_s =
      per_call_s([&] { (void)parts.front().serialize(); }, scale);
  const double deser_s = per_call_s(
      [&] { rl::SampleBatch::deserialize_into(traj_bytes, decoded); }, scale);
  cache::DistributedCache store;
  const auto payload = std::make_shared<const cache::Bytes>(traj_bytes);
  const double put_s = per_call_s([&] { store.put("traj/0", payload); }, scale);
  const double get_s = per_call_s([&] { (void)store.get("traj/0"); }, scale);
  const auto policy_bytes = core::encode_policy(params, 1);
  std::vector<float> policy_out;
  const double enc_s =
      per_call_s([&] { (void)core::encode_policy(params, 1); }, scale);
  const double dec_s = per_call_s(
      [&] { (void)core::decode_policy_into(policy_bytes, policy_out); }, scale);

  // core: the learner update on a real batch, and its nn / rl parts.
  rl::SampleBatch batch =
      T == 1 ? parts.front() : rl::SampleBatch::concat(parts);
  double epochs = 0.0;
  const double update_s = per_call_s(
      [&] {
        epochs = static_cast<double>(
            core::compute_learner_update(cfg, model, target, params, batch)
                .epochs_run);
      },
      scale);
  model.set_flat_params(params);
  const std::size_t rows = batch.size();
  const Tensor dpolicy = Tensor::zeros({rows, env.act_dim});
  const Tensor dvalues = Tensor::zeros({rows});
  const double fwd_s = per_call_s(
      [&] {
        (void)model.policy_forward(batch.obs);
        (void)model.value_forward(batch.obs);
      },
      scale);
  const double fwd_bwd_s = per_call_s(
      [&] {
        (void)model.policy_forward(batch.obs);
        (void)model.value_forward(batch.obs);
        model.policy_backward(dpolicy);
        model.value_backward(dvalues);
      },
      scale);
  nn::AdamOptimizer adam(ppo ? cfg.ppo.lr : cfg.impact.lr);
  std::vector<float> opt_params = params;
  const std::vector<float> opt_grad(params.size(), 1e-3f);
  const double opt_s =
      per_call_s([&] { adam.step(opt_params, opt_grad); }, scale);
  const double adv_s = per_call_s(
      [&] {
        if (ppo) {
          rl::compute_gae(batch, cfg.ppo.gamma, cfg.ppo.gae_lambda);
        } else {
          (void)rl::compute_vtrace(batch.behaviour_log_probs,
                                   batch.behaviour_log_probs, batch.rewards,
                                   batch.dones, batch.values,
                                   batch.bootstrap_value, cfg.impact.gamma);
        }
      },
      scale);

  // core: aggregation of the run's mean group size, with the KL probe, and
  // a checkpoint round trip.
  const auto& result = *ref.train;
  double groups = 0.0;
  for (const auto& rec : result.rounds) groups += static_cast<double>(rec.group_size);
  const std::size_t group_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(ratio(groups, static_cast<double>(result.rounds.size())))));
  core::ParameterFunction::Config pc;
  pc.alpha0 = 1.0;
  pc.optimizer = "sgd";
  pc.max_grad_norm = 1e3;
  core::ParameterFunction pf(params, pc);
  std::vector<core::GradientQueue::Item> group(group_size);
  for (auto& item : group) {
    item.msg.grad.resize(params.size());
    for (auto& g : item.msg.grad) g = static_cast<float>(1e-4 * rng.normal());
  }
  const std::size_t probe_rows = std::min<std::size_t>(rows, 32);
  const Tensor probe(
      {probe_rows, env.obs.flat_dim},
      std::vector<float>(batch.obs.vec().begin(),
                         batch.obs.vec().begin() +
                             static_cast<std::ptrdiff_t>(probe_rows *
                                                         env.obs.flat_dim)));
  const double agg_s = per_call_s(
      [&] {
        for (auto& item : group) item.msg.pulled_version = pf.version();
        const std::vector<float> before = pf.params();
        (void)pf.aggregate(group);
        (void)core::policy_update_kl(model, before, pf.params(), probe);
      },
      scale);
  core::Checkpoint restored;
  const double ckpt_s = per_call_s(
      [&] {
        const auto bytes = core::encode_checkpoint(pf.serialize_state());
        core::decode_checkpoint_into(bytes, restored);
      },
      scale);
  auto eval_env = envs::make_env(cfg.env_name);
  std::uint64_t eval_seed = seed;
  const double eval_s = per_call_s(
      [&] { (void)rl::evaluate_policy(*eval_env, model, 1, ++eval_seed); },
      scale);

  // Calls the measured repetition made. An attempt the fault plane dooms at
  // dispatch (a crash) never runs its body. The plan's random crashes strike
  // every kind of invocation with the same probability; its scripted ones
  // strike only parameter-function attempts, which run no body.
  const double scripted = static_cast<double>(cfg.faults.schedule.size());
  const double ran =
      1.0 - ratio(std::max(0.0, n.crashes - scripted),
                  n.actor + n.learner + n.parameter - scripted);
  const double n_act = n.actor * ran;
  const double n_learn = n.learner * ran;
  const double rounds = static_cast<double>(result.rounds.size());
  double evaluated = 0.0;
  for (const auto& rec : result.rounds) evaluated += rec.evaluated ? 1.0 : 0.0;
  const double restores = static_cast<double>(result.faults.restores);
  const double steps = n_act * static_cast<double>(H * K);

  LayerSeconds ls;
  ls.envs = steps * step_s;
  const double rollout_fwd = n_act * static_cast<double>(H) * infer_s;
  const double sample_self =
      n_act * std::max(0.0, sample_s - static_cast<double>(H) *
                                           (static_cast<double>(K) * step_s +
                                            infer_s));
  const double learner_nn = n_learn * epochs * (fwd_bwd_s + opt_s);
  const double learner_self =
      n_learn * std::max(0.0, update_s - epochs * (fwd_bwd_s + opt_s));
  const double serialize =
      n_act * ser_s + n_learn * static_cast<double>(T) * deser_s;
  ls.nn = rollout_fwd + learner_nn;
  ls.rl = sample_self + learner_self +
          evaluated * static_cast<double>(cfg.eval_episodes) * eval_s;
  ls.core = rounds * agg_s +
            (static_cast<double>(result.faults.checkpoints) + restores) * ckpt_s;
  // A learner's gradient message costs what a policy encode does (one flat
  // parameter vector); every update and restore republishes the policy.
  ls.util = serialize + (n_learn + rounds + restores + 1.0) * enc_s +
            n.policy_decodes * dec_s;
  ls.cache = n.cache_puts * put_s + n.cache_gets * get_s;
  ls.body = ls.envs + rollout_fwd + sample_self + serialize + learner_nn +
            learner_self;

  kernel_rates(env.obs, net, K, scale, rng, out);
  out.metrics.push_back({"nn.infer_forward_us", "us", infer_s * 1e6});
  out.metrics.push_back({"nn.infer_batch_rows", "count", static_cast<double>(K)});
  out.metrics.push_back({"util.policy_codec_us", "us", (enc_s + dec_s) * 1e6});
  out.metrics.push_back({"cache.get_us", "us", get_s * 1e6});
  out.metrics.push_back({"cache.put_us", "us", put_s * 1e6});
  out.metrics.push_back({"core.learner_epochs", "count", epochs});

  out.metrics.push_back(
      {"core.policy_reuse_ratio", "share",
       ratio(n.policy_reuses, n.policy_reuses + n.policy_decodes)});
  out.metrics.push_back(
      {"serverless.invocations", "count", n.actor + n.learner + n.parameter});
  out.metrics.push_back(
      {"fault.retries", "count", static_cast<double>(result.faults.retries)});
  out.metrics.push_back({"fault.checkpoints", "count",
                         static_cast<double>(result.faults.checkpoints)});
  out.metrics.push_back({"fault.restores", "count", restores});

  out.detail = {
      {"envs.step_us", "us", step_s * 1e6},
      {"rl.actor_sample_ms", "ms", sample_s * 1e3},
      {"rl.sample_self_ms", "ms",
       ratio(sample_self, n_act) * 1e3},
      {"rl.advantage_us", "us", adv_s * 1e6},
      {"rl.eval_episode_ms", "ms", eval_s * 1e3},
      {"nn.learner_forward_ms", "ms", fwd_s * 1e3},
      {"nn.learner_backward_ms", "ms", (fwd_bwd_s - fwd_s) * 1e3},
      {"nn.optimizer_step_us", "us", opt_s * 1e6},
      {"core.learner_update_ms", "ms", update_s * 1e3},
      {"core.aggregate_ms", "ms", agg_s * 1e3},
      {"core.aggregate_group", "count", static_cast<double>(group_size)},
      {"core.checkpoint_ms", "ms", ckpt_s * 1e3},
      {"util.serialize_gbps", "GB/s",
       static_cast<double>(traj_bytes.size()) / (ser_s + deser_s) * 1e-9},
      {"util.trajectory_bytes", "B", static_cast<double>(traj_bytes.size())},
      {"calls.actor_bodies", "count", n_act},
      {"calls.learner_bodies", "count", n_learn},
      {"calls.rounds", "count", rounds},
  };
  return ls;
}

/// Times the serving layer calls: each tenant's batch body (weights load
/// plus one batched forward at its mean batch), and the walker tenant's
/// policy codec and cache reads of its policy payload.
LayerSeconds model_serving(std::uint64_t seed, Scale scale, const Rep& ref,
                           const Counts& n, RunResult& out) {
  const auto cfg = serve_config(seed, scale);
  const auto& result = *ref.serve;
  Rng rng(seed);
  LayerSeconds ls;
  std::vector<double> forward_s, rows;
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
    const auto& tc = cfg.tenants[t];
    const auto& tr = result.tenants[t];
    rows.push_back(std::max(1.0, std::round(tr.mean_batch)));
    serve::ServeContext ctx(tc, seed);
    const std::vector<float> params = ctx.model.flat_params();
    Tensor obs = Tensor::rand_uniform(
        {static_cast<std::size_t>(rows.back()), tc.obs_dim}, rng, -1.0f, 1.0f);
    forward_s.push_back(per_call_s(
        [&] {
          ctx.model.set_flat_params(params);
          (void)ctx.model.policy_forward(obs);
          (void)ctx.model.value_forward(obs);
        },
        scale));
    ls.nn += static_cast<double>(tr.batches) * forward_s.back();
    out.detail.push_back(
        {"serve.batch_forward_us." + tc.name, "us", forward_s.back() * 1e6});
    out.detail.push_back({"serve.mean_batch." + tc.name, "count", tr.mean_batch});
    out.detail.push_back(
        {"serve.batches." + tc.name, "count", static_cast<double>(tr.batches)});
  }
  ls.body = ls.nn;

  const auto& walker = cfg.tenants.front();
  const std::vector<float> params =
      serve::make_policy_params(walker, seed);
  const auto bytes = core::encode_policy(params, 1);
  std::vector<float> decoded;
  const double enc_s =
      per_call_s([&] { (void)core::encode_policy(params, 1); }, scale);
  const double dec_s = per_call_s(
      [&] { (void)core::decode_policy_into(bytes, decoded); }, scale);
  cache::DistributedCache store;
  const auto payload = std::make_shared<const cache::Bytes>(bytes);
  const double put_s = per_call_s([&] { store.put("policy/0", payload); }, scale);
  const double get_s = per_call_s([&] { (void)store.get("policy/0"); }, scale);
  ls.util = n.policy_decodes * dec_s;
  ls.cache = n.cache_puts * put_s + n.cache_gets * get_s;

  kernel_rates(nn::ObsSpec::vector(walker.obs_dim),
               serve::ServeContext::make_net(walker),
               static_cast<std::size_t>(rows.front()), scale, rng, out);
  double batches = 0.0;
  for (const auto& tr : result.tenants) batches += static_cast<double>(tr.batches);
  out.metrics.insert(
      out.metrics.end(),
      {{"nn.infer_forward_us", "us", forward_s.front() * 1e6},
       {"nn.infer_batch_rows", "count", rows.front()},
       {"util.policy_codec_us", "us", (enc_s + dec_s) * 1e6},
       {"cache.get_us", "us", get_s * 1e6},
       {"cache.put_us", "us", put_s * 1e6},
       {"core.learner_epochs", "count", 0.0},
       {"core.policy_reuse_ratio", "share",
        ratio(n.policy_reuses, n.policy_reuses + n.policy_decodes)},
       {"serverless.invocations", "count", batches},
       {"fault.retries", "count", 0.0},
       {"fault.checkpoints", "count", 0.0},
       {"fault.restores", "count", 0.0}});
  return ls;
}

}  // namespace

void trace_layers(const Workload& w, std::uint64_t seed, Scale scale,
                  RunResult& out) {
  out.workload = w.name;
  out.seed = seed;
  out.trace = true;

  // 1. The repetition as measured, with the registry's counters zeroed
  //    first: the call counts of the model below come from it.
  obs::metrics().reset();
  const Rep ref = run_rep(w, seed, scale);
  out.digest = ref.digest;
  out.attempted = ref.attempted;
  out.failed = ref.failed;
  out.violations = ref.violations;
  const double items = std::max(ref.items, 1.0);
  const Counts n = read_counts(w.serve);
  RunResult model;
  const LayerSeconds ls = w.serve ? model_serving(seed, scale, ref, n, model)
                                  : model_training(w, seed, scale, ref, n, model);

  // 2. and 3., each repeated and interleaved with the plain repetition; every
  //    timing keeps its fastest repetition. All of them run `seed`, so they
  //    do the same work and only interference from other tenants differs.
  const DriverChoice conc{sim::DriverKind::kConcurrent,
                          w.name == "arcade_impact_par" ? parallel_workers() : 1};
  const auto dir = std::filesystem::read_symlink("/proc/self/exe").parent_path() /
                   ("e2e_capture_" + w.name);
  std::filesystem::create_directories(dir);
  double run_s = ref.run_s, cpu_s = ref.cpu_s, capture_run_s = 1e300;
  double engine_cpu = 0.0, body_cpu = 1e300;
  for (int k = 0; k < (scale == Scale::kSmoke ? 1 : 3); ++k) {
    if (k > 0) {
      const Rep again = run_rep(w, seed, scale);
      run_s = std::min(run_s, again.run_s);
      cpu_s = std::min(cpu_s, again.cpu_s);
    }
    // 2. Concurrent driver: bodies on worker threads, so the calling
    //    thread's CPU time is the engine's alone. Must replay bit-identically.
    const Rep par = run_rep(w, seed, scale, conc);
    if (par.digest != ref.digest)
      out.violations.push_back("concurrent-driver digest differs from the run's");
    if (par.cpu_s - par.engine_cpu_s < body_cpu) {
      engine_cpu = par.engine_cpu_s;
      body_cpu = std::max(par.cpu_s - par.engine_cpu_s, 0.0);
    }
    // 3. Capture on (ledger, trace, time series) into a scratch directory.
    obs::ObsOptions opts;
    opts.ledger_path = (dir / "ledger.jsonl").string();
    opts.trace_path = (dir / "trace.json").string();
    opts.timeseries_path = (dir / "timeseries.json").string();
    obs::ObsSession session(std::move(opts));
    const Rep cap = run_rep(w, seed, scale);
    capture_run_s = std::min(capture_run_s, cap.run_s);
    if (cap.digest != ref.digest)
      out.violations.push_back("capture changed the run's outputs");
  }
  std::filesystem::remove_all(dir);
  const double par_cpu = std::max(engine_cpu + body_cpu, 1e-9);

  const auto cold = static_cast<double>(w.serve ? ref.serve->cold_starts
                                                 : ref.train->cold_starts);
  const auto warm = static_cast<double>(w.serve ? ref.serve->warm_starts
                                                 : ref.train->warm_starts);

  // Layer shares are of the measured repetition's CPU time.
  const double cpu = std::max(cpu_s, 1e-9);
  const double modelled = ls.envs + ls.nn + ls.rl + ls.core + ls.util + ls.cache;
  out.metrics = {
      {"sim.engine_cpu_s", "s", engine_cpu},
      {"sim.body_cpu_s", "s", body_cpu},
      {"sim.engine_cpu_share", "share", engine_cpu / par_cpu},
      {"sim.engine_us_per_item", "us", engine_cpu / items * 1e6},
      {"envs.share", "share", ls.envs / cpu},
      {"nn.share", "share", ls.nn / cpu},
      {"rl.share", "share", ls.rl / cpu},
      {"core.share", "share", ls.core / cpu},
      {"util.share", "share", ls.util / cpu},
      {"cache.share", "share", ls.cache / cpu},
      {"layers.coverage", "share", ratio(ls.body, body_cpu)},
      {"obs.capture_overhead", "share", capture_run_s / run_s - 1.0},
      {"tensor.gemm_flop_per_item", "count", n.gemm_flops / items},
      {"tensor.eltwise_elem_per_item", "count", n.eltwise_elems / items},
      {"tensor.buffer_allocs", "count", n.buffer_allocs},
      {"cache.bytes_per_item", "B", n.cache_bytes / items},
      {"cache.hit_ratio", "share",
       ratio(n.cache_hits, n.cache_hits + n.cache_misses)},
      {"serverless.cold_start_ratio", "share", ratio(cold, cold + warm)},
  };
  out.metrics.insert(out.metrics.end(), model.metrics.begin(),
                     model.metrics.end());
  out.detail = std::move(model.detail);
  out.detail.push_back({"layers.modelled_share", "share", modelled / cpu});
  out.detail.push_back({"run_s", "s", run_s});
  out.detail.push_back({"capture_run_s", "s", capture_run_s});
}

}  // namespace stellaris::e2e
