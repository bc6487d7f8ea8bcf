// e2e_bench result types: named metrics with units, and one invocation's
// outcome for one workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stellaris::e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< of the repetition run at `seed` itself
  std::vector<std::string> violations;
  /// The declared metrics: BENCHMARK.json's end_to_end list for an untraced
  /// run, its per_layer list for a traced one.
  std::vector<Metric> metrics;
  /// Supporting numbers (per-call timings, call counts); printed and written
  /// to --json, never compared.
  std::vector<Metric> detail;

  bool correct() const { return violations.empty(); }
};

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Quartiles q1, q2, q3 as Python's statistics.quantiles(v, n=4) gives them
/// (the "exclusive" method); v must hold at least two values.
std::vector<double> quartiles(std::vector<double> v);

}  // namespace stellaris::e2e
