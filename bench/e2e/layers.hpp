// The traced run of e2e_bench: per-layer host-time numbers for one
// workload, measured from outside the program (see README.md, "Traced
// run").
#pragma once

#include "metrics.hpp"
#include "workloads.hpp"

namespace stellaris::e2e {

/// Runs the workload at `seed` as measured, under the concurrent driver for
/// per-thread CPU time, and with capture on (three times each), times
/// the public layer calls at the workload's shapes, and scales them by the
/// run's call counts. Fills `out.metrics` with BENCHMARK.json's per_layer
/// list. Capture files go to a scratch directory beside the executable and
/// are removed afterwards.
void trace_layers(const Workload& w, std::uint64_t seed, Scale scale,
                  RunResult& out);

}  // namespace stellaris::e2e
