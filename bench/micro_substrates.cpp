// Google-benchmark microbenchmarks for the substrates: tensor kernels,
// serialization, the distributed cache, the aggregation kernel, environment
// stepping, and a full learner gradient computation.
//
// A second personality, the kernel-perf harness, activates when any of
//   --json=<path>         write machine-readable kernel results
//   --compare=<path>      load a baseline JSON and compute deltas
//   --max-regress=<x>     fail (exit 1) if any kernel is > x times slower
//                         than the baseline (default 2.0)
//   --kernels             run the harness with stdout output only
// is passed (see bench/README.md for the JSON format). The harness times
// every tensor kernel against its ops::reference seed implementation on a
// fixed shape set, so the emitted file is a before/after perf trajectory:
// "reference" is the seed kernel, "value" is the current blocked kernel.
//
// A third personality, the cache/serialize harness (--cache-json=<path>,
// --cache-compare=<path>, --cache), times the zero-copy cache data plane
// and the single-pass encoders against reimplementations of the seed's
// copying paths; it shares --max-regress with the kernel harness.
//
// A fourth personality, the actor-rollout harness (--actor-json=<path>,
// --actor-compare=<path>, --actor), times VecActor's batched rollout
// (one (K, obs_dim)×W forward per step) at K ∈ {1, 2, 4, 8} against K=1,
// the one-env actor of the paper — the DESIGN.md §17 throughput claim.
// Results are Msteps/s; it shares --max-regress with the other harnesses.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/distributed_cache.hpp"
#include "core/parameter_function.hpp"
#include "core/policy_io.hpp"
#include "envs/env.hpp"
#include "nn/distributions.hpp"
#include "envs/vec_env.hpp"
#include "rl/gae.hpp"
#include "rl/vec_actor.hpp"
#include "rl/ppo.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "util/mini_json.hpp"
#include "util/rng.hpp"

namespace stellaris {
namespace {

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::matmul(a, b));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n * 2);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_SoftmaxRows(benchmark::State& state) {
  Rng rng(2);
  Tensor logits = Tensor::randn({256, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::softmax_rows(logits));
}
BENCHMARK(BM_SoftmaxRows);

void BM_Im2col(benchmark::State& state) {
  Rng rng(3);
  ops::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.in_h = spec.in_w = 20;
  spec.kernel = 5;
  spec.stride = 2;
  Tensor x = Tensor::randn({8, 3 * 20 * 20}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(ops::im2col(x, spec));
}
BENCHMARK(BM_Im2col);

void BM_CachePutGet(benchmark::State& state) {
  cache::DistributedCache cache;
  cache::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::string key = "k/" + std::to_string(i++ % 128);
    cache.put(key, payload);
    benchmark::DoNotOptimize(cache.get(key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_CachePutGet)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

/// A `horizon`-step Hopper trajectory from a one-env VecActor (seed 1)
/// under a fresh mujoco(32) policy (seed 1).
rl::SampleBatch hopper_batch(std::size_t horizon) {
  const auto spec = envs::env_spec("Hopper");
  nn::ActorCritic policy(spec.obs, spec.action_kind, spec.act_dim,
                         nn::NetworkSpec::mujoco(32), 1);
  rl::VecActor actor(std::make_unique<envs::VecEnv>("Hopper", 1, 1), 1);
  rl::VecActorScratch scratch;
  return actor.sample(policy, scratch, horizon, 0);
}

void BM_BatchSerialize(benchmark::State& state) {
  auto batch = hopper_batch(128);
  for (auto _ : state) {
    auto bytes = batch.serialize();
    benchmark::DoNotOptimize(rl::SampleBatch::deserialize(bytes));
  }
}
BENCHMARK(BM_BatchSerialize);

void BM_EnvStep(benchmark::State& state) {
  const char* names[] = {"Hopper", "SpaceInvaders"};
  auto env = envs::make_env(names[state.range(0)]);
  env->reset(1);
  Rng rng(1);
  const auto& spec = env->spec();
  std::size_t steps = 0;
  for (auto _ : state) {
    envs::StepResult r;
    if (spec.action_kind == nn::ActionKind::kContinuous) {
      std::vector<float> a(spec.act_dim);
      for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
      r = env->step(a);
    } else {
      r = env->step_discrete(rng.uniform_int(spec.act_dim));
    }
    if (r.done) env->reset(++steps);
    benchmark::DoNotOptimize(r.reward);
  }
}
BENCHMARK(BM_EnvStep)->Arg(0)->Arg(1);

void BM_PpoGradient(benchmark::State& state) {
  auto env_spec = envs::env_spec("Hopper");
  nn::ActorCritic model(env_spec.obs, env_spec.action_kind, env_spec.act_dim,
                        nn::NetworkSpec::mujoco(32), 1);
  auto batch = hopper_batch(static_cast<std::size_t>(state.range(0)));
  rl::PpoConfig cfg;
  rl::compute_gae(batch, cfg.gamma, cfg.gae_lambda);
  rl::normalize_advantages(batch);
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(rl::ppo_compute_gradients(model, batch, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PpoGradient)->Arg(128)->Arg(512);

void BM_Aggregation(benchmark::State& state) {
  const std::size_t dim = 4096;
  core::ParameterFunction::Config cfg;
  cfg.optimizer = "sgd";
  cfg.alpha0 = 1.0;
  core::ParameterFunction pf(std::vector<float>(dim, 0.0f), cfg);
  std::vector<core::GradientQueue::Item> group;
  Rng rng(1);
  for (int i = 0; i < state.range(0); ++i) {
    core::GradientQueue::Item item;
    item.msg.grad.resize(dim);
    for (auto& g : item.msg.grad) g = static_cast<float>(rng.normal());
    item.msg.pulled_version = 0;
    item.msg.mean_ratio = rng.uniform(0.8, 1.2);
    group.push_back(std::move(item));
  }
  for (auto _ : state) {
    // Refresh pulled versions so staleness stays valid as versions advance.
    for (auto& item : group) item.msg.pulled_version = pf.version();
    benchmark::DoNotOptimize(pf.aggregate(group));
  }
}
BENCHMARK(BM_Aggregation)->Arg(2)->Arg(8)->Arg(32);

void BM_GaussianLogProb(benchmark::State& state) {
  Rng rng(4);
  Tensor mean = Tensor::randn({512, 6}, rng);
  Tensor log_std = Tensor::randn({6}, rng, 0.3f);
  Tensor actions = Tensor::randn({512, 6}, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::gaussian_log_prob(mean, log_std, actions));
}
BENCHMARK(BM_GaussianLogProb);

// ---------------------------------------------------------------------------
// Kernel-perf harness
// ---------------------------------------------------------------------------

/// One timed kernel×shape result. `value`/`reference` are rates in `metric`
/// units (GFLOP/s for the GEMMs, Gelem/s for everything else).
struct KernelResult {
  std::string kernel;
  std::string shape;
  std::string metric;
  double work = 0.0;  // flops or elements per call
  double value = 0.0;
  double reference = 0.0;
};

/// Best-of-3 rate measurement: calibrates an iteration count to ~60 ms,
/// then keeps the fastest repetition (robust against scheduler noise).
double measure_rate(double work_per_call, const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  const auto seconds_for = [&](int iters) {
    const auto t0 = clock::now();
    for (int i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  fn();  // warm caches and scratch pools
  int iters = 1;
  double t = seconds_for(iters);
  while (t < 0.02 && iters < (1 << 20)) {
    iters *= 4;
    t = seconds_for(iters);
  }
  const int timed_iters = std::max(1, static_cast<int>(0.06 * iters / t));
  double best = t / iters;
  for (int rep = 0; rep < 3; ++rep)
    best = std::min(best, seconds_for(timed_iters) / timed_iters);
  return work_per_call / best / 1e9;
}

std::vector<KernelResult> run_kernel_benches() {
  std::vector<KernelResult> out;
  Rng rng(42);

  // Square and prime shapes time all three products. The learner's narrow
  // shapes time only the product the learner issues there: the policy-head
  // forward (nn, 512 rows × 3 actions), its dW (tn) and the first
  // convolution's 8-channel dW (tn, k = 6144 im2col rows: an eighth of an
  // arcade learner batch).
  struct GemmShape {
    std::size_t m, k, n;
    bool nn = true, tn = true, nt = true;
  };
  const GemmShape gemm_shapes[] = {
      {32, 32, 32},
      {64, 64, 64},
      {128, 128, 128},
      {67, 43, 129},
      {.m = 512, .k = 32, .n = 3, .tn = false, .nt = false},
      {.m = 32, .k = 512, .n = 3, .nn = false, .nt = false},
      {.m = 75, .k = 6144, .n = 8, .nn = false, .nt = false}};
  for (const auto& s : gemm_shapes) {
    std::ostringstream shape;
    shape << s.m << "x" << s.k << "x" << s.n;
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.k) * static_cast<double>(s.n);
    if (s.nn) {
      Tensor a = Tensor::randn({s.m, s.k}, rng);
      Tensor b = Tensor::randn({s.k, s.n}, rng);
      Tensor c;
      out.push_back(
          {"matmul", shape.str(), "gflops", flops,
           measure_rate(flops, [&] { ops::matmul_into(c, a, b); }),
           measure_rate(flops, [&] { ops::reference::matmul(a, b); })});
    }
    if (s.tn) {
      Tensor a = Tensor::randn({s.k, s.m}, rng);
      Tensor b = Tensor::randn({s.k, s.n}, rng);
      Tensor c;
      out.push_back(
          {"matmul_tn", shape.str(), "gflops", flops,
           measure_rate(flops, [&] { ops::matmul_tn_into(c, a, b); }),
           measure_rate(flops, [&] { ops::reference::matmul_tn(a, b); })});
    }
    if (s.nt) {
      Tensor a = Tensor::randn({s.m, s.k}, rng);
      Tensor b = Tensor::randn({s.n, s.k}, rng);
      Tensor c;
      out.push_back(
          {"matmul_nt", shape.str(), "gflops", flops,
           measure_rate(flops, [&] { ops::matmul_nt_into(c, a, b); }),
           measure_rate(flops, [&] { ops::reference::matmul_nt(a, b); })});
    }
  }

  const std::size_t rows = 512, cols = 128;
  const double elems = static_cast<double>(rows * cols);
  const std::string eshape = "512x128";
  Tensor x = Tensor::randn({rows, cols}, rng);
  Tensor y;
  out.push_back({"tanh_forward", eshape, "gelems", elems,
                 measure_rate(elems, [&] { ops::tanh_forward_into(y, x); }),
                 measure_rate(elems, [&] { ops::reference::tanh_forward(x); })});
  out.push_back({"relu_forward", eshape, "gelems", elems,
                 measure_rate(elems, [&] { ops::relu_forward_into(y, x); }),
                 measure_rate(elems, [&] { ops::reference::relu_forward(x); })});
  out.push_back(
      {"softmax_rows", eshape, "gelems", elems,
       measure_rate(elems, [&] { ops::softmax_rows_into(y, x); }),
       measure_rate(elems, [&] { ops::reference::softmax_rows(x); })});
  out.push_back(
      {"log_softmax_rows", eshape, "gelems", elems,
       measure_rate(elems, [&] { ops::log_softmax_rows_into(y, x); }),
       measure_rate(elems, [&] { ops::reference::log_softmax_rows(x); })});
  out.push_back({"sum_rows", eshape, "gelems", elems,
                 measure_rate(elems, [&] { ops::sum_rows_into(y, x); }),
                 measure_rate(elems, [&] { ops::reference::sum_rows(x); })});
  return out;
}

// ---------------------------------------------------------------------------
// Cache / serialization substrate harness
// ---------------------------------------------------------------------------
//
// Same KernelResult shape as the tensor-kernel harness, but "reference" is a
// faithful reimplementation of the pre-zero-copy data plane: deep-copying
// cache reads/writes, growing unsized encoders with per-field temporaries,
// and allocate-per-call decoders. "value" is the current path. Activated by
// --cache-json / --cache-compare / --cache; shares --max-regress.

/// The old copying encoder: unsized writer (geometric growth) plus a fresh
/// temporary vector per tensor header — the allocation profile the sized
/// single-pass encoder replaced.
std::vector<std::uint8_t> legacy_serialize_batch(const rl::SampleBatch& b) {
  ByteWriter w;
  auto put_tensor = [&](const Tensor& t) {
    std::vector<std::uint64_t> dims(t.shape().begin(), t.shape().end());
    w.put_u64_vector(dims);
    w.put_f32_vector(t.vec());
  };
  w.put_u8(b.action_kind == nn::ActionKind::kContinuous ? 0 : 1);
  put_tensor(b.obs);
  put_tensor(b.actions_cont);
  w.put_u64_vector(
      std::vector<std::uint64_t>(b.actions_disc.begin(), b.actions_disc.end()));
  put_tensor(b.rewards);
  put_tensor(b.dones);
  put_tensor(b.behaviour_log_probs);
  put_tensor(b.values);
  w.put_f32(b.bootstrap_value);
  std::vector<std::uint64_t> seg_starts;
  std::vector<float> seg_boot;
  for (const auto& s : b.segments) {
    seg_starts.push_back(s.start);
    seg_boot.push_back(s.bootstrap);
  }
  w.put_u64_vector(seg_starts);
  w.put_f32_vector(seg_boot);
  w.put_u64(b.policy_version);
  put_tensor(b.advantages);
  put_tensor(b.value_targets);
  w.put_f64_vector(b.episode_returns);
  return w.take();
}

/// The old checkpoint encoder: unsized writer and a per-byte loop for the
/// optimizer blob.
std::vector<std::uint8_t> legacy_encode_checkpoint(const core::Checkpoint& c) {
  ByteWriter w;
  w.put_u64(c.version);
  w.put_u64(c.applied_gradients);
  w.put_f32_vector(c.params);
  w.put_u64(c.optimizer_state.size());
  for (std::uint8_t byte : c.optimizer_state) w.put_u8(byte);
  return w.take();
}

std::vector<KernelResult> run_cache_benches() {
  std::vector<KernelResult> out;

  const struct {
    const char* name;
    std::size_t bytes;
  } sizes[] = {{"1KiB", 1024}, {"64KiB", 64 * 1024}, {"1MiB", 1024 * 1024}};

  for (const auto& s : sizes) {
    const double work = static_cast<double>(s.bytes);
    cache::DistributedCache cache;
    cache.put("k", cache::Bytes(s.bytes, 0x5a));
    out.push_back(
        {"cache_get", s.name, "gbps", work,
         // Current read: refcount bump + span view, no byte moves.
         measure_rate(work, [&] { benchmark::DoNotOptimize(cache.get("k")); }),
         // Old read: the store handed back a deep copy of the payload.
         measure_rate(work, [&] {
           auto v = cache.get("k");
           cache::Bytes copy(v->bytes().begin(), v->bytes().end());
           benchmark::DoNotOptimize(copy);
         })});

    const auto payload =
        std::make_shared<const cache::Bytes>(cache::Bytes(s.bytes, 0x5a));
    const cache::Bytes master(s.bytes, 0x5a);
    out.push_back(
        {"cache_put", s.name, "gbps", work,
         // Current write: publishers move/share one refcounted buffer.
         measure_rate(work, [&] { cache.put("k", payload); }),
         // Old write: every put copied the caller's buffer into the store.
         measure_rate(work, [&] { cache.put("k", cache::Bytes(master)); })});
  }

  {
    auto batch = hopper_batch(128);
    const auto bytes = batch.serialize();
    STELLARIS_CHECK_MSG(legacy_serialize_batch(batch) == bytes,
                        "legacy encoder diverged from the frozen wire format");
    const double work = static_cast<double>(bytes.size());
    out.push_back({"serialize_batch", "hopper128", "gbps", work,
                   measure_rate(work,
                                [&] {
                                  benchmark::DoNotOptimize(batch.serialize());
                                }),
                   measure_rate(work, [&] {
                     benchmark::DoNotOptimize(legacy_serialize_batch(batch));
                   })});
    rl::SampleBatch scratch;
    out.push_back(
        {"deserialize_batch", "hopper128", "gbps", work,
         // Current decode: tensors land in reused buffers (zero alloc warm).
         measure_rate(work,
                      [&] { rl::SampleBatch::deserialize_into(bytes, scratch); }),
         // Old decode: a fresh batch (and every tensor) allocated per call.
         measure_rate(work, [&] {
           benchmark::DoNotOptimize(rl::SampleBatch::deserialize(bytes));
         })});
  }

  {
    core::Checkpoint ckpt;
    ckpt.params.assign(64 * 1024, 0.5f);
    ckpt.version = 3;
    ckpt.applied_gradients = 9;
    ckpt.optimizer_state.assign(512 * 1024, 0xa7);
    const auto bytes = core::encode_checkpoint(ckpt);
    STELLARIS_CHECK_MSG(legacy_encode_checkpoint(ckpt) == bytes,
                        "legacy encoder diverged from the frozen wire format");
    const double work = static_cast<double>(bytes.size());
    out.push_back(
        {"encode_ckpt", "64k+512KiB", "gbps", work,
         measure_rate(work,
                      [&] {
                        benchmark::DoNotOptimize(core::encode_checkpoint(ckpt));
                      }),
         measure_rate(work, [&] {
           benchmark::DoNotOptimize(legacy_encode_checkpoint(ckpt));
         })});
    core::Checkpoint scratch;
    out.push_back(
        {"decode_ckpt", "64k+512KiB", "gbps", work,
         measure_rate(work,
                      [&] { core::decode_checkpoint_into(bytes, scratch); }),
         measure_rate(work, [&] {
           benchmark::DoNotOptimize(core::decode_checkpoint(bytes));
         })});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Actor-rollout harness
// ---------------------------------------------------------------------------
//
// "value" is VecActor's batched rollout rate at K envs per invocation;
// "reference" is its K=1 rate (one single-row forward per step) on the same
// policy network, so speedup_vs_reference is the DESIGN.md §17
// batched-inference gain. Rates are Msteps/s (environment steps, not
// timesteps × envs). Activated by --actor-json / --actor-compare / --actor;
// shares --max-regress.

std::vector<KernelResult> run_actor_benches() {
  std::vector<KernelResult> out;
  const auto env_spec = envs::env_spec("Hopper");
  // Bench at the trained MuJoCo width: small enough that env stepping is a
  // real fraction of the loop, so the measured gain is honest end-to-end
  // rollout throughput rather than a pure GEMM ratio.
  nn::ActorCritic policy(env_spec.obs, env_spec.action_kind, env_spec.act_dim,
                         nn::NetworkSpec::mujoco(32), 1);
  const std::size_t horizon = 64;
  // Steps × 1000 as "work" lands the %.3f-printed JSON values in Msteps/s.
  const double step_scale = 1000.0;

  double k1_rate = 0.0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    rl::VecActor actor(std::make_unique<envs::VecEnv>("Hopper", k, 1), 1);
    rl::VecActorScratch scratch;
    const double work = static_cast<double>(k * horizon) * step_scale;
    const double rate = measure_rate(work, [&] {
      benchmark::DoNotOptimize(actor.sample(policy, scratch, horizon, 0));
    });
    if (k == 1) k1_rate = rate;
    out.push_back({"actor_rollout", "K" + std::to_string(k), "msteps", work,
                   rate, k1_rate});
  }
  return out;
}

void write_kernel_json(const std::string& path, const std::string& schema,
                       const std::vector<KernelResult>& results) {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"" << schema << "\",\n"
     << "  \"kernel_threads\": " << ops::kernel_threads() << ",\n"
     << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"entries\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"metric\": "
                  "\"%s\", \"value\": %.3f, \"reference\": %.3f, "
                  "\"speedup_vs_reference\": %.3f}",
                  r.kernel.c_str(), r.shape.c_str(), r.metric.c_str(),
                  r.value, r.reference,
                  r.reference > 0.0 ? r.value / r.reference : 0.0);
    os << buf << (i + 1 < results.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

/// Compare against a baseline JSON (same schema). Returns the worst
/// value/baseline ratio across kernels present in both files.
double compare_to_baseline(const std::string& path,
                           const std::vector<KernelResult>& results) {
  std::ifstream is(path);
  STELLARIS_CHECK_MSG(is.good(), "cannot read baseline " << path);
  std::stringstream ss;
  ss << is.rdbuf();
  const minijson::Value root = minijson::parse(ss.str());
  double worst = std::numeric_limits<double>::infinity();
  for (const minijson::Value& e : root.at("entries").arr) {
    const std::string& kernel = e.at("kernel").string();
    const std::string& shape = e.at("shape").string();
    const double base = e.at("value").number();
    if (base <= 0.0) continue;
    for (const auto& r : results) {
      if (r.kernel != kernel || r.shape != shape) continue;
      const double ratio = r.value / base;
      std::printf("  vs baseline  %-18s %-12s %8.2fx\n", kernel.c_str(),
                  shape.c_str(), ratio);
      worst = std::min(worst, ratio);
    }
  }
  return worst;
}

const char* metric_suffix(const std::string& metric) {
  if (metric == "gflops") return "GF";
  if (metric == "gbps") return "GB";
  if (metric == "msteps") return "Ms";
  return "Ge";
}

int run_harness(const std::vector<KernelResult>& results,
                const std::string& schema, const std::string& json_out,
                const std::string& baseline, double max_regress) {
  std::printf("%-18s %-12s %10s %10s %9s\n", "kernel", "shape", "current",
              "reference", "speedup");
  for (const auto& r : results) {
    std::printf("%-18s %-12s %8.2f%s %8.2f%s %8.2fx\n", r.kernel.c_str(),
                r.shape.c_str(), r.value, metric_suffix(r.metric),
                r.reference, metric_suffix(r.metric),
                r.reference > 0.0 ? r.value / r.reference : 0.0);
  }
  if (!json_out.empty()) {
    write_kernel_json(json_out, schema, results);
    std::printf("wrote %s\n", json_out.c_str());
  }
  if (!baseline.empty()) {
    const double worst = compare_to_baseline(baseline, results);
    if (worst * max_regress < 1.0) {
      std::printf("FAIL: worst kernel is %.2fx of baseline (limit %.2fx)\n",
                  worst, 1.0 / max_regress);
      return 1;
    }
    std::printf("baseline check passed: worst ratio %.2fx (limit %.2fx)\n",
                worst, 1.0 / max_regress);
  }
  return 0;
}

}  // namespace
}  // namespace stellaris

int main(int argc, char** argv) {
  std::string json_out, baseline, cache_json, cache_baseline;
  std::string actor_json, actor_baseline;
  double max_regress = 2.0;
  bool kernel_mode = false, cache_mode = false, actor_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_out = arg.substr(7);
      kernel_mode = true;
    } else if (arg.rfind("--compare=", 0) == 0) {
      baseline = arg.substr(10);
      kernel_mode = true;
    } else if (arg.rfind("--cache-json=", 0) == 0) {
      cache_json = arg.substr(13);
      cache_mode = true;
    } else if (arg.rfind("--cache-compare=", 0) == 0) {
      cache_baseline = arg.substr(16);
      cache_mode = true;
    } else if (arg.rfind("--actor-json=", 0) == 0) {
      actor_json = arg.substr(13);
      actor_mode = true;
    } else if (arg.rfind("--actor-compare=", 0) == 0) {
      actor_baseline = arg.substr(16);
      actor_mode = true;
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      max_regress = std::stod(arg.substr(14));
    } else if (arg == "--kernels") {
      kernel_mode = true;
    } else if (arg == "--cache") {
      cache_mode = true;
    } else if (arg == "--actor") {
      actor_mode = true;
    }
  }
  if (kernel_mode || cache_mode || actor_mode) {
    int rc = 0;
    if (kernel_mode)
      rc |= stellaris::run_harness(stellaris::run_kernel_benches(),
                                   "stellaris-kernel-bench-v1", json_out,
                                   baseline, max_regress);
    if (cache_mode)
      rc |= stellaris::run_harness(stellaris::run_cache_benches(),
                                   "stellaris-cache-bench-v1", cache_json,
                                   cache_baseline, max_regress);
    if (actor_mode)
      rc |= stellaris::run_harness(stellaris::run_actor_benches(),
                                   "stellaris-actor-bench-v1", actor_json,
                                   actor_baseline, max_regress);
    return rc;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
