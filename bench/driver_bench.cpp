// Execution-driver bench (DESIGN.md §14): wall-clock of the concurrent
// driver vs the virtual driver on fig06- and fig10-shaped workloads, at
// 1/2/4/8 driver threads — plus a hard bit-identity assert between every
// configuration, because a speedup that changed the results would be a bug,
// not a win.
//
// Flags:
//   --json=<path>        machine-readable results (schema
//                        stellaris-driver-bench-v1)
//   --compare=<path>     baseline JSON; compute throughput ratios
//   --max-regress=<x>    fail (exit 1) if any config is > x times slower
//                        than the baseline
//   --scale=smoke|bench  workload size (default bench; smoke for CI)
//
// Speedup scales with available cores: the per-entry `speedup_vs_virtual`
// is only meaningful relative to `host_cores` recorded in the same file —
// on a 1-core host the concurrent driver cannot beat the virtual one.
// Wall-clock timing is inherently nondeterministic; the results the runs
// produce are not, and the identity assert proves it on every invocation.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/mini_json.hpp"

using namespace stellaris;

namespace {

struct RunOutcome {
  core::TrainResult result;
  double wall_s = 0.0;
};

struct Entry {
  std::string workload;  ///< fig06_async | fig10_minions_sync
  std::string driver;    ///< "virtual" or "concurrent"
  std::size_t threads = 0;
  double wall_s = 0.0;
  double speedup_vs_virtual = 1.0;
  double throughput = 0.0;  ///< 1 / wall_s — higher is better, like the
                            ///< kernel bench, so baselines share semantics
};

int g_failures = 0;

void check_bits(double a, double b, const char* workload, const char* what) {
  if (!(a == b)) {
    std::fprintf(stderr,
                 "FAIL: %s: %s differs across drivers (%.17g != %.17g)\n",
                 workload, what, a, b);
    ++g_failures;
  }
}

void expect_identical(const core::TrainResult& a, const core::TrainResult& b,
                      const char* workload) {
  if (a.rounds.size() != b.rounds.size()) {
    std::fprintf(stderr, "FAIL: %s: round counts differ (%zu != %zu)\n",
                 workload, a.rounds.size(), b.rounds.size());
    ++g_failures;
    return;
  }
  check_bits(a.total_time_s, b.total_time_s, workload, "total_time_s");
  check_bits(a.total_cost_usd, b.total_cost_usd, workload, "total_cost_usd");
  check_bits(a.final_reward, b.final_reward, workload, "final_reward");
  check_bits(a.best_reward, b.best_reward, workload, "best_reward");
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    check_bits(a.rounds[i].time_s, b.rounds[i].time_s, workload,
               "round time_s");
    check_bits(a.rounds[i].kl, b.rounds[i].kl, workload, "round kl");
    if (a.rounds[i].evaluated && b.rounds[i].evaluated)
      check_bits(a.rounds[i].reward, b.rounds[i].reward, workload,
                 "round reward");
  }
}

template <typename Fn>
RunOutcome timed(Fn run) {
  RunOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  out.result = run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

core::TrainConfig fig06_config(bool smoke) {
  auto cfg = bench::base_config("Hopper", smoke ? 6 : 20, 1);
  if (smoke) {
    cfg.num_actors = 4;
    cfg.horizon = 32;
    cfg.network_width = 8;
    cfg.trajs_per_learner = 2;
    cfg.eval_episodes = 1;
  }
  return cfg;
}

RunOutcome run_fig06(bool smoke, sim::DriverKind kind, std::size_t threads) {
  auto cfg = fig06_config(smoke);
  cfg.driver = kind;
  cfg.driver_threads = threads;
  return timed([&] { return core::run_training(cfg); });
}

RunOutcome run_fig10(bool smoke, sim::DriverKind kind, std::size_t threads) {
  // fig10 shape: the MinionsRL-like sync baseline (central learner, waves
  // of serverless actors) — the barrier phases are where the sync trainer
  // fans bodies out.
  baselines::SyncConfig cfg;
  cfg.base = fig06_config(smoke);
  cfg.base.rounds = smoke ? 4 : 10;
  cfg.base.driver = kind;
  cfg.base.driver_threads = threads;
  cfg.variant = baselines::SyncVariant::kMinionsLike;
  return timed([&] { return baselines::run_sync_training(cfg); });
}

void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::ofstream os(path);
  bench::write_bench_header(os, "stellaris-driver-bench-v1");
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "    {\"workload\": \"%s\", \"driver\": \"%s\", "
                  "\"threads\": %zu, \"wall_s\": %.4f, "
                  "\"speedup_vs_virtual\": %.3f, \"value\": %.4f}",
                  e.workload.c_str(), e.driver.c_str(), e.threads, e.wall_s,
                  e.speedup_vs_virtual, e.throughput);
    os << buf << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

/// Worst current/baseline throughput ratio over configs present in both.
double compare_to_baseline(const std::string& path,
                           const std::vector<Entry>& entries) {
  std::ifstream is(path);
  if (!is.good()) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    ++g_failures;
    return 1.0;
  }
  std::stringstream ss;
  ss << is.rdbuf();
  const minijson::Value root = minijson::parse(ss.str());
  double worst = std::numeric_limits<double>::infinity();
  for (const minijson::Value& e : root.at("entries").arr) {
    const std::string& workload = e.at("workload").string();
    const std::string& driver = e.at("driver").string();
    const auto threads =
        static_cast<std::size_t>(e.at("threads").number());
    const double base = e.at("value").number();
    if (base <= 0.0) continue;
    for (const auto& r : entries) {
      if (r.workload != workload || r.driver != driver ||
          r.threads != threads)
        continue;
      const double ratio = r.throughput / base;
      std::printf("  vs baseline  %-18s %-10s t=%zu %8.2fx\n",
                  workload.c_str(), driver.c_str(), threads, ratio);
      worst = std::min(worst, ratio);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out, baseline;
  double max_regress = 0.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_out = arg.substr(7);
    else if (arg.rfind("--compare=", 0) == 0) baseline = arg.substr(10);
    else if (arg.rfind("--max-regress=", 0) == 0)
      max_regress = std::stod(arg.substr(14));
    else if (arg == "--scale=smoke") smoke = true;
    else if (arg == "--scale=bench") smoke = false;
  }

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Entry> entries;

  struct Workload {
    const char* name;
    RunOutcome (*run)(bool, sim::DriverKind, std::size_t);
  };
  const Workload workloads[] = {{"fig06_async", &run_fig06},
                                {"fig10_minions_sync", &run_fig10}};

  std::printf("%-18s %-10s %7s %9s %9s\n", "workload", "driver", "threads",
              "wall_s", "speedup");
  for (const auto& w : workloads) {
    const auto virt = w.run(smoke, sim::DriverKind::kVirtual, 0);
    entries.push_back({w.name, "virtual", 0, virt.wall_s, 1.0,
                       virt.wall_s > 0.0 ? 1.0 / virt.wall_s : 0.0});
    std::printf("%-18s %-10s %7d %9.3f %8.2fx\n", w.name, "virtual", 0,
                virt.wall_s, 1.0);
    for (const std::size_t t : thread_counts) {
      const auto conc = w.run(smoke, sim::DriverKind::kConcurrent, t);
      expect_identical(virt.result, conc.result, w.name);
      const double speedup =
          conc.wall_s > 0.0 ? virt.wall_s / conc.wall_s : 0.0;
      entries.push_back({w.name, "concurrent", t, conc.wall_s, speedup,
                         conc.wall_s > 0.0 ? 1.0 / conc.wall_s : 0.0});
      std::printf("%-18s %-10s %7zu %9.3f %8.2fx\n", w.name, "concurrent", t,
                  conc.wall_s, speedup);
    }
  }

  if (!json_out.empty()) {
    write_json(json_out, entries);
    std::printf("wrote %s\n", json_out.c_str());
  }
  if (!baseline.empty() && max_regress > 0.0) {
    const double worst = compare_to_baseline(baseline, entries);
    if (worst * max_regress < 1.0) {
      std::printf("FAIL: worst config is %.2fx of baseline (limit %.2fx)\n",
                  worst, 1.0 / max_regress);
      ++g_failures;
    } else {
      std::printf("baseline check passed: worst ratio %.2fx (limit %.2fx)\n",
                  worst, 1.0 / max_regress);
    }
  }

  if (g_failures) {
    std::fprintf(stderr, "driver_bench: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("driver_bench: OK (results bit-identical across drivers)\n");
  return 0;
}
