// Serving-tier bench (DESIGN.md §15): the multi-tenant policy-serving data
// plane under production-shaped traffic — batched inference throughput and
// latency quantiles, autoscaling across a burst, cost per million
// inferences, and the canary rollout controller's promote and auto-rollback
// paths. Three scenarios:
//
//   steady_2tenant    two tenants (continuous + discrete policies), open
//                     Poisson traffic with a mid-run burst on tenant 0 —
//                     the headline: sustained throughput must exceed 1M
//                     requests per simulated hour;
//   canary_promote    a healthy canary takes 30% of traffic and is promoted
//                     after consecutive clean evaluation windows;
//   canary_rollback   the canary is a much heavier model behind the same
//                     API; its p99 breaches the latency SLO and the
//                     controller rolls back automatically.
//
// Every scenario also runs under BOTH execution drivers and hard-asserts
// bit-identical results (value checksums, virtual makespan, cost) — the
// serving tier inherits the capture/body/merge determinism contract.
//
// Flags:
//   --json=<path>        machine-readable results (schema
//                        stellaris-serve-bench-v1)
//   --compare=<path>     baseline JSON; compute wall-clock throughput ratios
//   --max-regress=<x>    fail (exit 1) if any scenario is > x times slower
//   --scale=smoke|bench  scenario length (default bench; smoke for CI)
//   --driver=..., --driver-threads=..., --ledger-out=... etc. as elsewhere
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/serve_engine.hpp"
#include "util/mini_json.hpp"

using namespace stellaris;

namespace {

int g_failures = 0;

void check_bits(double a, double b, const char* scenario, const char* what) {
  if (!(a == b)) {
    std::fprintf(stderr,
                 "FAIL: %s: %s differs across drivers (%.17g != %.17g)\n",
                 scenario, what, a, b);
    ++g_failures;
  }
}

struct Scenario {
  std::string name;
  serve::ServeConfig cfg;
  /// (tenant, version, cost_mult) published before run; v1 per tenant is
  /// implied and published automatically.
  struct Canary {
    std::size_t tenant;
    std::uint64_t version;
    double cost_mult;
    double fraction;
    double at_s;
  };
  std::vector<Canary> canaries;
};

serve::TenantConfig tenant_base(const std::string& name, bool discrete) {
  serve::TenantConfig t;
  t.name = name;
  t.discrete = discrete;
  t.obs_dim = discrete ? 12 : 8;
  t.act_dim = discrete ? 6 : 3;
  t.hidden = 16;
  t.batch.max_batch = 32;
  t.batch.max_wait_s = 0.002;
  return t;
}

Scenario steady_2tenant(bool smoke) {
  Scenario s;
  s.name = "steady_2tenant";
  auto walker = tenant_base("walker", false);
  walker.traffic.rate_per_s = 250.0;
  walker.traffic.duration_s = smoke ? 10.0 : 60.0;
  walker.traffic.burst_rate_per_s = 900.0;
  walker.traffic.burst_start_s = smoke ? 4.0 : 20.0;
  walker.traffic.burst_end_s = smoke ? 6.0 : 30.0;
  auto arcade = tenant_base("arcade", true);
  arcade.traffic.rate_per_s = 150.0;
  arcade.traffic.duration_s = walker.traffic.duration_s;
  s.cfg.tenants = {walker, arcade};
  s.cfg.worker_capacity = 16;
  s.cfg.autoscale.max_workers = 8;
  s.cfg.autoscale.queue_per_worker = 32.0;
  s.cfg.autoscale.eval_period_s = 0.25;
  s.cfg.seed = 42;
  return s;
}

Scenario canary_promote(bool smoke) {
  Scenario s;
  s.name = "canary_promote";
  auto walker = tenant_base("walker", false);
  walker.traffic.rate_per_s = 300.0;
  walker.traffic.duration_s = smoke ? 12.0 : 40.0;
  walker.rollout.eval_period_s = smoke ? 1.0 : 4.0;
  walker.rollout.min_window_requests = 50;
  walker.rollout.healthy_windows_to_promote = 2;
  walker.rollout.slo_p99_s = 0.5;
  walker.rollout.max_value_drift = 1e9;  // healthy canary: only the SLO gates
  s.cfg.tenants = {walker};
  s.cfg.autoscale.max_workers = 4;
  s.cfg.seed = 42;
  s.canaries.push_back({0, 2, 1.0, 0.3, smoke ? 2.0 : 5.0});
  return s;
}

Scenario canary_rollback(bool smoke) {
  Scenario s = canary_promote(smoke);
  s.name = "canary_rollback";
  // The canary is ~40x heavier behind the same API: its compute alone
  // breaks the 60 ms p99 SLO, so the controller must roll back on its own.
  s.cfg.tenants[0].rollout.slo_p99_s = 0.060;
  s.canaries[0].cost_mult = 40.0;
  return s;
}

struct Outcome {
  serve::ServeResult res;
  double wall_s = 0.0;
};

Outcome run_scenario(const Scenario& s, sim::DriverKind kind,
                     std::size_t threads) {
  auto cfg = s.cfg;
  cfg.driver = kind;
  cfg.driver_threads = threads;
  serve::ServeEngine eng(cfg);
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    eng.publish_policy(t, serve::make_policy_params(cfg.tenants[t], 100 + t),
                       cfg.tenants[t].initial_version);
  for (const auto& c : s.canaries) {
    eng.publish_policy(c.tenant,
                       serve::make_policy_params(cfg.tenants[c.tenant],
                                                 200 + c.version),
                       c.version, c.cost_mult);
    eng.schedule_canary(c.tenant, c.version, c.fraction, c.at_s);
  }
  Outcome out;
  const auto t0 = std::chrono::steady_clock::now();
  out.res = eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return out;
}

void expect_identical(const serve::ServeResult& a, const serve::ServeResult& b,
                      const char* scenario) {
  check_bits(a.duration_s, b.duration_s, scenario, "duration_s");
  check_bits(a.cost_usd, b.cost_usd, scenario, "cost_usd");
  check_bits(static_cast<double>(a.completed), static_cast<double>(b.completed),
             scenario, "completed");
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    check_bits(a.tenants[t].value_checksum, b.tenants[t].value_checksum,
               scenario, "value_checksum");
    check_bits(a.tenants[t].latency_sum_s, b.tenants[t].latency_sum_s,
               scenario, "latency_sum_s");
    check_bits(a.tenants[t].p99_s, b.tenants[t].p99_s, scenario, "p99_s");
  }
}

struct Entry {
  std::string scenario;
  double wall_s = 0.0;
  double value = 0.0;  ///< 1 / wall_s, like the driver bench baselines
};

void write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::ofstream os(path);
  bench::write_bench_header(os, "stellaris-serve-bench-v1");
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\": \"%s\", \"wall_s\": %.4f, "
                  "\"value\": %.4f}",
                  entries[i].scenario.c_str(), entries[i].wall_s,
                  entries[i].value);
    os << buf << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
}

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
    const std::string& scenario = e.at("scenario").string();
    const double base = e.at("value").number();
    if (base <= 0.0) continue;
    for (const auto& r : entries) {
      if (r.scenario != scenario) continue;
      const double ratio = r.value / base;
      std::printf("  vs baseline  %-16s %8.2fx\n", scenario.c_str(), ratio);
      worst = std::min(worst, ratio);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  auto session = bench::obs_session_from_args(argc, argv);
  std::string json_out, baseline;
  double max_regress = 0.0;
  bool smoke = false;
  sim::DriverKind driver = sim::DriverKind::kVirtual;
  std::size_t driver_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_out = arg.substr(7);
    else if (arg.rfind("--compare=", 0) == 0) baseline = arg.substr(10);
    else if (arg.rfind("--max-regress=", 0) == 0)
      max_regress = std::stod(arg.substr(14));
    else if (arg == "--scale=smoke") smoke = true;
    else if (arg == "--scale=bench") smoke = false;
    else if (arg.rfind("--driver=", 0) == 0) {
      const auto kind = sim::parse_driver_kind(arg.substr(9));
      if (!kind) {
        std::fprintf(stderr, "unknown --driver=%s (virtual|concurrent)\n",
                     arg.substr(9).c_str());
        return 2;
      }
      driver = *kind;
    } else if (arg.rfind("--driver-threads=", 0) == 0) {
      driver_threads = static_cast<std::size_t>(std::stoul(arg.substr(17)));
    }
  }

  const Scenario scenarios[] = {steady_2tenant(smoke), canary_promote(smoke),
                                canary_rollback(smoke)};

  Table t({"scenario", "tenant", "issued", "completed", "rejected", "failed",
           "mean_batch", "p50_ms", "p99_ms", "p999_ms", "req_per_hour",
           "cost_usd", "cost_per_m_usd", "peak_workers", "promotions",
           "rollbacks"});
  std::vector<Entry> entries;

  for (const auto& s : scenarios) {
    const auto out = run_scenario(s, driver, driver_threads);
    // Cross-driver bit-identity: the scenario must replay exactly under the
    // other driver (4 worker threads exercises real concurrency).
    const auto other = run_scenario(
        s,
        driver == sim::DriverKind::kVirtual ? sim::DriverKind::kConcurrent
                                            : sim::DriverKind::kVirtual,
        4);
    expect_identical(out.res, other.res, s.name.c_str());

    for (const auto& tr : out.res.tenants) {
      t.row()
          .add(s.name)
          .add(tr.name)
          .add(static_cast<std::size_t>(tr.issued))
          .add(static_cast<std::size_t>(tr.completed))
          .add(static_cast<std::size_t>(tr.rejected))
          .add(static_cast<std::size_t>(tr.failed))
          .add(tr.mean_batch, 2)
          .add(tr.p50_s * 1e3, 2)
          .add(tr.p99_s * 1e3, 2)
          .add(tr.p999_s * 1e3, 2)
          .add(out.res.requests_per_hour, 0)
          .add(out.res.cost_usd, 5)
          .add(out.res.cost_per_million, 4)
          .add(out.res.peak_workers)
          .add(static_cast<std::size_t>(tr.promotions))
          .add(static_cast<std::size_t>(tr.rollbacks));
    }
    entries.push_back(
        {s.name, out.wall_s, out.wall_s > 0.0 ? 1.0 / out.wall_s : 0.0});

    if (s.name == "steady_2tenant") {
      if (out.res.requests_per_hour < 1e6) {
        std::fprintf(stderr,
                     "FAIL: steady_2tenant sustains %.0f req/sim-hour "
                     "(need >= 1e6)\n",
                     out.res.requests_per_hour);
        ++g_failures;
      }
    } else if (s.name == "canary_promote") {
      if (out.res.tenants[0].promotions != 1 ||
          out.res.tenants[0].final_stable_version != 2) {
        std::fprintf(stderr, "FAIL: canary_promote did not promote v2\n");
        ++g_failures;
      }
    } else if (s.name == "canary_rollback") {
      if (out.res.tenants[0].rollbacks != 1 ||
          out.res.tenants[0].final_stable_version != 1) {
        std::fprintf(stderr,
                     "FAIL: canary_rollback did not roll back to v1\n");
        ++g_failures;
      }
    }
  }

  t.emit(
      "Serving tier — throughput, latency quantiles, cost, and rollout"
      " decisions (batching amortizes the per-batch floor; the autoscaler"
      " absorbs the burst; the heavier canary is rolled back on its p99)",
      "fig_serve.csv");

  if (!json_out.empty()) {
    write_json(json_out, entries);
    std::printf("wrote %s\n", json_out.c_str());
  }
  if (!baseline.empty() && max_regress > 0.0) {
    const double worst = compare_to_baseline(baseline, entries);
    if (worst * max_regress < 1.0) {
      std::printf("FAIL: worst scenario is %.2fx of baseline (limit %.2fx)\n",
                  worst, 1.0 / max_regress);
      ++g_failures;
    } else {
      std::printf("baseline check passed: worst ratio %.2fx (limit %.2fx)\n",
                  worst, 1.0 / max_regress);
    }
  }

  if (g_failures) {
    std::fprintf(stderr, "fig_serve: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf(
      "fig_serve: OK (>= 1M req/sim-hour, promote + rollback demonstrated,"
      " results bit-identical across drivers)\n");
  return 0;
}
