// e2e_bench — end-to-end host-time benchmark over four fixed workloads
// (see README.md for why each exists and what every metric means).
//
//   e2e_bench [--workload=<name>] [--seed=<n>] [--seconds=<s>] [--trace]
//             [--json=<path>]
//   e2e_bench --smoke [--json=<path>]
//   e2e_bench --compare=<dirA>,<dirB>
//
// Flags also take their value as the next argument (`--seed 3`), and
// `--trace` takes an optional 0 or 1. Without --workload every workload
// runs, one after another, each in a child process of its own.
//
// An untraced run repeats the workload for `--seconds` (default 25) and
// reports the end-to-end metrics of BENCHMARK.json, its times scaled to the
// reference host speed (host_speed.hpp); a traced run reports
// its per_layer metrics instead. Every run checks its outputs; the last
// stdout line of each workload is a JSON object {"correct", "attempted",
// "failed", "metrics"}. The exit code is 0 only when every check passed.
//
// --smoke runs one small repetition of every workload, both untraced and
// traced, then re-reads its own --json output and checks that it holds
// every metric BENCHMARK.json declares (the e2e_bench_smoke ctest).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compare.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "metrics.hpp"
#include "tensor/kernel_config.hpp"
#include "util/mini_json.hpp"
#include "util/percentile.hpp"
#include "workloads.hpp"

using namespace stellaris;
using namespace stellaris::e2e;

namespace {

constexpr std::size_t kMinReps = 8;  ///< timed repetitions, whatever --seconds

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    s += (i ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " +
         num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) + "}";
  return s + "}";
}

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  return 0.0;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One end-to-end metric's per-repetition values.
struct Series {
  const char* name;
  const char* unit;
  bool lower_is_better;
  std::vector<double> values;
};

/// The tail on the worse side of `s`, for the detail lines: the highest of
/// p99, p95, p90 and p75 that has at least ten values beyond it (nearest
/// rank). None when fewer than 40 repetitions ran.
void add_tail(const Series& s, std::vector<Metric>& detail) {
  // Negating a higher-is-better metric puts its worse side on top.
  const double sign = s.lower_is_better ? 1.0 : -1.0;
  std::vector<double> worse;
  for (const double v : s.values) worse.push_back(sign * v);
  const double n = static_cast<double>(worse.size());
  for (const int p : {99, 95, 90, 75}) {
    if (n * (100 - p) / 100.0 < 10.0) continue;
    detail.push_back({std::string(s.name) + ".tail_p" + std::to_string(p),
                      s.unit, sign * nearest_rank(worse, p / 100.0)});
    return;
  }
}

/// The untraced run. One warm-up repetition at `seed` (caches fill, pools
/// grow; its digest is the one printed), then repetitions at the distinct
/// seeds rep_seed(seed, 1), rep_seed(seed, 2), ... until `seconds` have
/// passed. Each metric is the median of its per-repetition values, with
/// no repetition dropped: seeds differ in how much work their training
/// does (with faults on, by up to 2x), so ranking repetitions by time would
/// keep the light seeds. Many seeds per run even that work out.
///
/// The host's speed drifts by tens of percent over minutes, and a run lasts
/// less than that. So the host-speed probe runs right before and right
/// after every repetition, on as many threads as the workload keeps busy,
/// and the repetition's times are divided by its slowdown, the mean of the
/// two probe times over kReferenceProbeSeconds: they read as host time on
/// the reference host in its quietest periods. The probe calls none of the
/// repository's code, so a change to that code moves the scaled times
/// exactly as it moves the measured ones. A smoke run times the repetition
/// at `seed` alone.
RunResult measure(const Workload& w, std::uint64_t seed, Scale scale,
                  double seconds) {
  RunResult out;
  out.workload = w.name;
  out.seed = seed;
  const bool smoke = scale == Scale::kSmoke;
  std::vector<Series> series = {
      {"run_s", "s", true, {}},
      {"setup_s", "s", true, {}},
      {"cpu_s", "s", true, {}},
      {"peak_rss_mb", "MB", true, {}},
      {"items_per_s", "1/s", false, {}},
      {"sim_s_per_host_s", "s/s", false, {}},
  };
  std::vector<double> slowdowns, unscaled_run_s;
  double checkpoints = 0.0, restores = 0.0;
  const std::size_t threads = busy_threads(w);
  const double t0 = now_s();
  double last = 0.0;
  for (std::size_t k = 0;
       smoke ? k < 1 : k < 1 + kMinReps || now_s() - t0 + last <= seconds;
       ++k) {
    const double start = now_s();
    const double before = probe_seconds(threads);
    // Peak RSS is per repetition: reset the process's high-water mark.
    std::ofstream("/proc/self/clear_refs") << "5";
    const Rep rep = run_rep(w, rep_seed(seed, k), scale);
    const double rss = peak_rss_mb();
    const double slowdown =
        (before + probe_seconds(threads)) / (2.0 * kReferenceProbeSeconds);
    last = now_s() - start;
    out.attempted += rep.attempted;
    out.failed += rep.failed;
    out.violations.insert(out.violations.end(), rep.violations.begin(),
                          rep.violations.end());
    if (k == 0) {
      out.digest = rep.digest;
      if (!smoke) continue;
    }
    const double run_s = rep.run_s / slowdown;
    // In the order of `series`.
    const double values[] = {run_s,
                             rep.setup_s / slowdown,
                             rep.cpu_s / slowdown,
                             rss,
                             rep.items / run_s,
                             rep.sim_s / run_s};
    for (std::size_t i = 0; i < series.size(); ++i)
      series[i].values.push_back(values[i]);
    slowdowns.push_back(slowdown);
    unscaled_run_s.push_back(rep.run_s);
    checkpoints += static_cast<double>(rep.checkpoints);
    restores += static_cast<double>(rep.restores);
  }
  const double reps = static_cast<double>(series.front().values.size());
  out.detail = {{"reps", "count", reps},
                {"host.slowdown", "ratio", median(slowdowns)},
                {"run_s.unscaled", "s", median(unscaled_run_s)}};
  for (const auto& s : series) {
    out.metrics.push_back({s.name, s.unit, median(s.values)});
    add_tail(s, out.detail);
  }
  out.detail.push_back({"fault.checkpoints_per_rep", "count", checkpoints / reps});
  out.detail.push_back({"fault.restores_per_rep", "count", restores / reps});
  return out;
}

/// `<workload> <seed> <digest>` lines of expected_digests.txt, if present.
std::string expected_digest(const std::string& workload, std::uint64_t seed) {
  std::ifstream is("bench/e2e/expected_digests.txt");
  std::string name, digest;
  std::uint64_t s = 0;
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    if (line.empty() || line[0] == '#' || !(ls >> name >> s >> digest)) continue;
    if (name == workload && s == seed) return digest;
  }
  return "";
}

void print(const RunResult& r, Scale scale) {
  for (const auto& m : r.metrics)
    std::printf("metric %s %s = %s %s\n", r.workload.c_str(), m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
  for (const auto& m : r.detail)
    std::printf("detail %s %s = %s %s\n", r.workload.c_str(), m.name.c_str(),
                num(m.value).c_str(), m.unit.c_str());
  // A digest change is information, not a failure: a deliberate re-key of
  // the virtual-time outputs must not need a benchmark edit.
  const std::string expected =
      scale == Scale::kBench ? expected_digest(r.workload, r.seed) : "";
  std::printf("digest %s seed=%llu digest=%s digest_changed=%s\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              hex(r.digest).c_str(),
              expected.empty() ? "unknown"
                               : (expected == hex(r.digest) ? "0" : "1"));
  for (const auto& v : r.violations)
    std::fprintf(stderr, "FAIL %s: %s\n", r.workload.c_str(), v.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(r.metrics).c_str());
  std::fflush(stdout);
}

std::string header_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return "{\"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"kernel_threads\": " + std::to_string(ops::kernel_threads()) +
         ", \"compiler\": " + quoted(compiler) +
         ", \"build_type\": " + quoted(E2E_BUILD_TYPE) +
         ", \"cxx_flags\": " + quoted(E2E_CXX_FLAGS) +
         ", \"STELLARIS_LOCK_ORDER_CHECK\": " +
         std::to_string(STELLARIS_LOCK_ORDER_CHECK) +
         ", \"STELLARIS_NATIVE_ARCH\": " + std::to_string(E2E_NATIVE_ARCH) + "}";
}

/// One run object, on one line.
std::string run_json(const RunResult& r) {
  std::string violations = "[";
  for (std::size_t v = 0; v < r.violations.size(); ++v)
    violations += (v ? ", " : "") + quoted(r.violations[v]);
  return "{\"workload\": " + quoted(r.workload) +
         ", \"seed\": " + std::to_string(r.seed) +
         ", \"trace\": " + (r.trace ? "1" : "0") +
         ", \"correct\": " + (r.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"digest\": " + quoted(hex(r.digest)) +
         ", \"violations\": " + violations + "]" +
         ", \"metrics\": " + metrics_json(r.metrics) +
         ", \"detail\": " + metrics_json(r.detail) + "}";
}

/// One run object per line, so result files can be concatenated with
/// line tools (capture.sh).
void write_json(const std::string& path, const std::vector<std::string>& runs) {
  std::ofstream os(path);
  os << "{\"schema\": \"stellaris-e2e-bench-v1\",\n"
     << "\"header\": " << header_json() << ",\n\"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i)
    os << runs[i] << (i + 1 < runs.size() ? ",\n" : "\n");
  os << "]}\n";
}

/// The smoke test's format check: `path` parses, and every untraced run
/// holds every end_to_end metric of BENCHMARK.json, every traced run every
/// per_layer one.
int check_json(const std::string& path) {
  int missing = 0;
  try {
    const auto spec = read_json("BENCHMARK.json");
    const auto results = read_json(path);
    for (const auto& run : results.at("runs").arr) {
      const bool traced = run.at("trace").number() != 0.0;
      for (const auto& m :
           spec.at(traced ? "per_layer" : "end_to_end").arr) {
        if (run.at("metrics").has(m.at("name").string())) continue;
        std::fprintf(stderr, "FAIL %s: %s run lacks metric %s\n",
                     run.at("workload").string().c_str(),
                     traced ? "traced" : "untraced",
                     m.at("name").string().c_str());
        ++missing;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  return missing == 0 ? 0 : 1;
}

struct Args {
  std::string workload, json, compare;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 25.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
};

/// Whole-string numeric parse; false on anything else.
template <typename T>
bool parse_number(const std::string& s, T& out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i], value;
    const auto eq = arg.find('=');
    const bool inline_value = eq != std::string::npos;
    if (inline_value) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto take = [&]() -> bool {
      if (inline_value) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--trace") {
      if (!inline_value && i + 1 < argc &&
          (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1"))
        value = argv[++i];
      a.trace = value.empty() || value == "1";
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--workload" && take()) {
      a.workload = value;
    } else if (arg == "--seed" && take() && parse_number(value, a.seed)) {
      a.seed_set = true;
    } else if (arg == "--seconds" && take() &&
               parse_number(value, a.seconds) && a.seconds >= 0.0) {
    } else if (arg == "--json" && take()) {
      a.json = value;
    } else if (arg == "--compare" && take()) {
      a.compare = value;
    } else {
      std::fprintf(stderr, "e2e_bench: bad argument %s %s\n", arg.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

/// Runs workload `w` as `args` ask, prints its results, and returns them as
/// JSON run lines; `ok` turns false when a check failed.
std::vector<std::string> run_workload(const Workload& w, const Args& args,
                                      bool& ok) {
  const Scale scale = args.smoke ? Scale::kSmoke : Scale::kBench;
  const std::uint64_t seed = args.seed_set ? args.seed : w.default_seed;
  std::vector<RunResult> results;
  if (args.smoke || !args.trace)
    results.push_back(measure(w, seed, scale, args.smoke ? 0.0 : args.seconds));
  if (args.smoke || args.trace) {
    results.emplace_back();
    trace_layers(w, seed, scale, results.back());
  }
  std::vector<std::string> lines;
  for (const auto& r : results) {
    print(r, scale);
    ok &= r.correct();
    lines.push_back(run_json(r));
  }
  return lines;
}

/// Runs workload `w` in a child process and appends its JSON run lines to
/// `lines`. Each workload gets a fresh process so that what one leaves
/// resident (thread-local scratch pools, allocator arenas) is not in the
/// next one's peak RSS. Returns true when the child's checks all passed.
bool run_in_child(const Workload& w, const Args& args,
                  std::vector<std::string>& lines) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("e2e_bench: pipe");
    return false;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("e2e_bench: fork");
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    bool ok = true;
    try {
      std::string out;
      for (const auto& line : run_workload(w, args, ok)) out += line + "\n";
      for (std::size_t done = 0; done < out.size();) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ok = false;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAIL %s: %s\n", w.name.c_str(), e.what());
      ok = false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  std::istringstream is(in);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  if (!args.compare.empty()) {
    const auto comma = args.compare.find(',');
    if (comma == std::string::npos) {
      std::fprintf(stderr, "e2e_bench: --compare=<dirA>,<dirB>\n");
      return 2;
    }
    return compare_dirs(args.compare.substr(0, comma),
                        args.compare.substr(comma + 1));
  }
  // The kernels would fan out over a thread pool, and the workloads'
  // thread counts are part of their definition.
  if (std::getenv("STELLARIS_KERNEL_THREADS") != nullptr) {
    std::fprintf(stderr, "e2e_bench: unset STELLARIS_KERNEL_THREADS\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  if (args.workload.empty()) {
    for (const auto& w : workloads()) selected.push_back(&w);
  } else if (const Workload* w = find_workload(args.workload)) {
    selected.push_back(w);
  } else {
    std::fprintf(stderr, "e2e_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  std::vector<std::string> runs;
  bool correct = true;
  for (const Workload* w : selected) correct &= run_in_child(*w, args, runs);
  if (!args.json.empty()) {
    write_json(args.json, runs);
    if (args.smoke && check_json(args.json) != 0) correct = false;
  }
  return correct ? 0 : 1;
}
