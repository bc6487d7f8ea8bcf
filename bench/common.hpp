// Shared helpers for the figure benches: reduced-scale default configs,
// multi-seed curve averaging with EMA smoothing (the paper's curves are
// smoothed and averaged over repeated runs), and serverful re-billing for
// motivation-style comparisons.
//
// Scale notes (see EXPERIMENTS.md): the paper trains 50 rounds × 10 seeds
// on 16 V100s; these benches run the same protocol with reduced dimensions
// so the full suite regenerates on a laptop core in minutes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sync_trainer.hpp"
#include "core/stellaris_trainer.hpp"
#include "obs/obs.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/kernel_isa.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace stellaris::bench {

/// Opens a BENCH_*.json document with the header every bench JSON shares:
/// schema, kernel threads, host cores and the kernel ISA tier that ran.
/// The caller writes `"entries": [...]` and the closing brace.
inline void write_bench_header(std::ostream& os, const std::string& schema) {
  os << "{\n  \"schema\": \"" << schema << "\",\n"
     << "  \"kernel_threads\": " << ops::kernel_threads() << ",\n"
     << "  \"host_cores\": " << std::thread::hardware_concurrency() << ",\n"
     << "  \"kernel_isa\": \"" << ops::kernel_isa() << "\",\n";
}

/// Shared observability flag surface: every figure bench accepts
///   --trace-out=<file>        Chrome trace-event JSON (open in Perfetto)
///   --metrics-out=<file>      metrics snapshot (JSON, or CSV if *.csv)
///   --ledger-out=<file>       causal run ledger (JSONL; see DESIGN.md §13)
///   --timeseries-out=<file>   windowed time series (JSON, or CSV if *.csv)
///   --timeseries-window=<s>   sampling window width in virtual seconds
/// and captures the whole bench run in one ObsSession. Unknown arguments
/// are ignored so the flags compose with whatever else a bench parses.
/// With no flag given, recording stays disabled and the run's results
/// are bit-identical to an uninstrumented build.
inline std::unique_ptr<obs::ObsSession> obs_session_from_args(int argc,
                                                              char** argv) {
  obs::ObsOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0)
      opts.trace_path = arg.substr(12);
    else if (arg.rfind("--metrics-out=", 0) == 0)
      opts.metrics_path = arg.substr(14);
    else if (arg.rfind("--ledger-out=", 0) == 0)
      opts.ledger_path = arg.substr(13);
    else if (arg.rfind("--timeseries-out=", 0) == 0)
      opts.timeseries_path = arg.substr(17);
    else if (arg.rfind("--timeseries-window=", 0) == 0)
      opts.timeseries_window_s = std::stod(arg.substr(20));
  }
  return std::make_unique<obs::ObsSession>(std::move(opts));
}

/// Execution-driver flag surface (DESIGN.md §14), shared like the obs flags:
///   --driver=virtual|concurrent   execution driver (default: virtual)
///   --driver-threads=<n>          concurrent worker cap (0 = one per
///                                 hardware thread)
///   --envs-per-actor=<k>          environment copies stepped per actor
///                                 invocation (DESIGN.md §17; default 1)
/// Results are byte-identical across drivers by construction; the driver
/// flags only trade wall-clock for threads. --envs-per-actor changes the
/// sampled data (K times more timesteps per invocation), not the
/// execution semantics. Unknown arguments are ignored.
inline void apply_driver_args(core::TrainConfig& cfg, int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--driver=", 0) == 0) {
      const auto kind = sim::parse_driver_kind(arg.substr(9));
      if (!kind) {
        std::fprintf(stderr, "unknown --driver=%s (virtual|concurrent)\n",
                     arg.substr(9).c_str());
        std::exit(2);
      }
      cfg.driver = *kind;
    } else if (arg.rfind("--driver-threads=", 0) == 0) {
      cfg.driver_threads = static_cast<std::size_t>(
          std::stoul(arg.substr(17)));
    } else if (arg.rfind("--envs-per-actor=", 0) == 0) {
      cfg.envs_per_actor = static_cast<std::size_t>(
          std::stoul(arg.substr(17)));
      if (cfg.envs_per_actor == 0) {
        std::fprintf(stderr, "--envs-per-actor must be >= 1\n");
        std::exit(2);
      }
    }
  }
}

/// Reduced-scale base config shared by the figure benches.
inline core::TrainConfig base_config(const std::string& env,
                                     std::size_t rounds, std::uint64_t seed) {
  core::TrainConfig cfg;
  cfg.env_name = env;
  cfg.rounds = rounds;
  cfg.seed = seed;
  cfg.cluster = serverless::ClusterSpec::regular_small();
  const bool atari = envs::env_spec(env).obs.image;
  cfg.num_actors = atari ? 4 : 8;
  cfg.horizon = atari ? 96 : 128;
  cfg.trajs_per_learner = atari ? 2 : 4;
  cfg.eval_episodes = 3;
  return cfg;
}

/// Rounds per env kind: arcade runs are CPU-heavier per step, so they get
/// fewer rounds at bench scale.
inline std::size_t default_rounds(const std::string& env) {
  return envs::env_spec(env).obs.image ? 16 : 40;
}

inline std::size_t default_seeds(const std::string& /*env*/) {
  return 2;
}

/// One point of an averaged curve.
struct CurvePoint {
  double x = 0.0;      ///< round index or virtual time
  double mean = 0.0;
  double stddev = 0.0;
};

/// Average the evaluated-reward curves of several same-config runs.
/// Each run's curve is EMA-smoothed first (α = smooth), then aligned by
/// round index and averaged across seeds; x is the mean virtual time when
/// `by_time` is set.
inline std::vector<CurvePoint> average_curves(
    const std::vector<core::TrainResult>& runs, bool by_time = false,
    double smooth = 0.6) {
  std::vector<CurvePoint> out;
  if (runs.empty()) return out;
  const std::size_t rounds = runs.front().rounds.size();
  std::vector<Ema> emas(runs.size(), Ema(smooth));
  for (std::size_t r = 0; r < rounds; ++r) {
    RunningStat reward, time;
    bool any = false;
    for (std::size_t s = 0; s < runs.size(); ++s) {
      if (r >= runs[s].rounds.size()) continue;
      const auto& rec = runs[s].rounds[r];
      if (!rec.evaluated) continue;
      emas[s].add(rec.reward);
      reward.add(emas[s].value());
      time.add(rec.time_s);
      any = true;
    }
    if (!any) continue;
    out.push_back({by_time ? time.mean() : static_cast<double>(r + 1),
                   reward.mean(), reward.stddev()});
  }
  return out;
}

/// Mean final / best reward, cost, and time across seeds.
struct Summary {
  double final_reward = 0.0;
  double best_reward = 0.0;
  double total_cost = 0.0;
  double learner_cost = 0.0;
  double actor_cost = 0.0;
  double time_s = 0.0;
};

inline Summary summarize(const std::vector<core::TrainResult>& runs) {
  Summary s;
  for (const auto& r : runs) {
    s.final_reward += r.final_reward;
    s.best_reward += r.best_reward;
    s.total_cost += r.total_cost_usd;
    s.learner_cost += r.learner_cost_usd;
    s.actor_cost += r.actor_cost_usd;
    s.time_s += r.total_time_s;
  }
  const double n = static_cast<double>(runs.size());
  s.final_reward /= n;
  s.best_reward /= n;
  s.total_cost /= n;
  s.learner_cost /= n;
  s.actor_cost /= n;
  s.time_s /= n;
  return s;
}

/// Re-bill an (async, serverless-executed) run as if the whole VM fleet had
/// been rented for its wall-clock — the "asynchronous learners WITHOUT
/// serverless" variant of Fig. 2.
inline void rebill_serverful(core::TrainResult& result,
                             const serverless::ClusterSpec& cluster) {
  double fleet_hourly = 0.0, gpu_hourly = 0.0;
  for (const auto& g : cluster.vms) {
    fleet_hourly += g.type.hourly_price_usd * static_cast<double>(g.count);
    if (g.type.gpus > 0)
      gpu_hourly += g.type.hourly_price_usd * static_cast<double>(g.count);
  }
  result.learner_cost_usd = gpu_hourly / 3600.0 * result.total_time_s;
  result.actor_cost_usd =
      (fleet_hourly - gpu_hourly) / 3600.0 * result.total_time_s;
  result.parameter_cost_usd = 0.0;
  result.total_cost_usd = result.learner_cost_usd + result.actor_cost_usd;
  double acc = 0.0;
  for (auto& r : result.rounds) {
    acc = fleet_hourly / 3600.0 * r.time_s;
    r.cost_so_far_usd = acc;
  }
}

/// Run N seeds of a Stellaris config.
inline std::vector<core::TrainResult> run_seeds(core::TrainConfig cfg,
                                                std::size_t seeds) {
  std::vector<core::TrainResult> out;
  for (std::size_t s = 0; s < seeds; ++s) {
    cfg.seed = 1000 + 37 * s;
    out.push_back(core::run_training(cfg));
  }
  return out;
}

/// Run N seeds of a Stellaris config with a virtual-time budget: the round
/// count is scaled so each run fills roughly `time_budget_s` of virtual
/// time — the paper's comparisons are at equal wall-clock, where the
/// asynchronous system fits several times more policy updates than the
/// synchronous baseline. A single pilot run estimates the per-round time;
/// the scale factor is capped to keep bench wall time bounded.
inline std::vector<core::TrainResult> run_seeds_time_matched(
    core::TrainConfig cfg, std::size_t seeds, double time_budget_s,
    double max_scale = 2.5) {
  cfg.seed = 1000;
  core::TrainResult pilot = core::run_training(cfg);
  const double per_round =
      pilot.total_time_s / static_cast<double>(cfg.rounds);
  double scale = per_round > 0.0
                     ? time_budget_s / (per_round *
                                        static_cast<double>(cfg.rounds))
                     : 1.0;
  scale = std::clamp(scale, 1.0, max_scale);
  cfg.rounds = static_cast<std::size_t>(
      static_cast<double>(cfg.rounds) * scale);
  return run_seeds(cfg, seeds);
}

/// Run N seeds of a sync-baseline config.
inline std::vector<core::TrainResult> run_sync_seeds(
    baselines::SyncConfig cfg, std::size_t seeds) {
  std::vector<core::TrainResult> out;
  for (std::size_t s = 0; s < seeds; ++s) {
    cfg.base.seed = 1000 + 37 * s;
    out.push_back(baselines::run_sync_training(cfg));
  }
  return out;
}

/// Emit a two-system reward-curve comparison as one table.
inline void emit_curve_comparison(const std::string& title,
                                  const std::string& name_a,
                                  const std::vector<core::TrainResult>& a,
                                  const std::string& name_b,
                                  const std::vector<core::TrainResult>& b,
                                  const std::string& csv_path) {
  const auto ca = average_curves(a);
  const auto cb = average_curves(b);
  const auto ta = average_curves(a, /*by_time=*/true);
  const auto tb = average_curves(b, /*by_time=*/true);
  Table t({"round", name_a + "_reward", name_a + "_sd", name_a + "_time_s",
           name_b + "_reward", name_b + "_sd", name_b + "_time_s"});
  const std::size_t n = std::min(ca.size(), cb.size());
  for (std::size_t i = 0; i < n; ++i) {
    // Downsample long curves for console legibility; CSV keeps all rows.
    t.row()
        .add(ca[i].x, 0)
        .add(ca[i].mean, 1)
        .add(ca[i].stddev, 1)
        .add(ta[i].x, 2)
        .add(cb[i].mean, 1)
        .add(cb[i].stddev, 1)
        .add(tb[i].x, 2);
  }
  t.emit(title, csv_path);
}

}  // namespace stellaris::bench
