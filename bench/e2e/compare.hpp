// e2e_bench --compare: two sets of result files, judged metric by metric
// against the bounds in BENCHMARK.json.
#pragma once

#include <string>

#include "util/mini_json.hpp"

namespace stellaris::e2e {

/// Parse the JSON file at `path`; throws std::runtime_error naming the file
/// when it cannot be read or parsed.
minijson::Value read_json(const std::string& path);

/// Reads every *.json result file in `dir_a` (the parent) and `dir_b` (the
/// change) and, for each end-to-end metric of BENCHMARK.json (read from the
/// working directory) and each workload both sides ran, prints each side's
/// median and quartiles and a verdict:
///   worse       the change's median is worse than the parent's by more
///               than the metric's bound;
///   unresolved  either side's quartile spread exceeds the bound, and not
///               every run of the change beats every run of the parent;
///   ok          otherwise.
/// Returns 0 when nothing is worse, 1 when something is, 2 on bad input.
int compare_dirs(const std::string& dir_a, const std::string& dir_b);

}  // namespace stellaris::e2e
