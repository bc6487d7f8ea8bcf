#include "compare.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "metrics.hpp"
#include "workloads.hpp"

namespace stellaris::e2e {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q.push_back((v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
                 v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                4.0);
  }
  return q;
}

minijson::Value read_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << is.rdbuf();
  try {
    return minijson::parse(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

namespace {

/// workload → metric → values of the untraced runs in `dir`, in file-name
/// order.
using Samples = std::map<std::string, std::map<std::string, std::vector<double>>>;

Samples load_dir(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  Samples out;
  for (const auto& f : files) {
    const auto results = read_json(f.string());
    for (const auto& run : results.at("runs").arr) {
      if (run.at("trace").number() != 0.0) continue;
      auto& by_metric = out[run.at("workload").string()];
      for (const auto& [name, m] : run.at("metrics").obj)
        by_metric[name].push_back(m.at("value").number());
    }
  }
  return out;
}

struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

}  // namespace

int compare_dirs(const std::string& dir_a, const std::string& dir_b) {
  std::vector<Bound> bounds;
  Samples a, b;
  try {
    const auto spec = read_json("BENCHMARK.json");
    for (const auto& m : spec.at("end_to_end").arr)
      bounds.push_back({m.at("name").string(), m.at("better").string() == "lower",
                        m.at("bound").number()});
    a = load_dir(dir_a);
    b = load_dir(dir_b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench --compare: %s\n", e.what());
    return 2;
  }

  std::printf("%-18s %-17s %38s %38s %8s %6s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "change",
              "bound", "verdict");
  bool any_worse = false;
  for (const auto& w : workloads()) {
    if (!a.count(w.name) || !b.count(w.name)) continue;
    for (const auto& bd : bounds) {
      const auto& va = a[w.name][bd.name];
      const auto& vb = b[w.name][bd.name];
      if (va.empty() || vb.empty()) continue;
      const auto qa = quartiles(va), qb = quartiles(vb);
      const double ma = median(va), mb = median(vb);
      // Positive `worse` means the change reads worse than the parent.
      const double worse = (bd.lower_is_better ? mb - ma : ma - mb) / ma;
      const bool wide = (qa[2] - qa[0]) / ma > bd.bound ||
                        (qb[2] - qb[0]) / mb > bd.bound;
      const bool all_better =
          bd.lower_is_better
              ? *std::max_element(vb.begin(), vb.end()) <
                    *std::min_element(va.begin(), va.end())
              : *std::min_element(vb.begin(), vb.end()) >
                    *std::max_element(va.begin(), va.end());
      const bool is_worse = !wide && worse > bd.bound;
      const char* verdict =
          wide && !all_better ? "unresolved" : (is_worse ? "worse" : "ok");
      any_worse |= is_worse;
      char pa[64], pb[64];
      std::snprintf(pa, sizeof pa, "%.5g [%.5g, %.5g]", ma, qa[0], qa[2]);
      std::snprintf(pb, sizeof pb, "%.5g [%.5g, %.5g]", mb, qb[0], qb[2]);
      std::printf("%-18s %-17s %38s %38s %+7.1f%% %5.0f%%  %s\n",
                  w.name.c_str(), bd.name.c_str(), pa, pb,
                  100.0 * (mb - ma) / ma, 100.0 * bd.bound, verdict);
    }
  }
  return any_worse ? 1 : 0;
}

}  // namespace stellaris::e2e
