// The host-speed probe of e2e_bench: a fixed piece of work, owned by the
// benchmark, whose host time tracks how fast the host runs at the moment.
#pragma once

#include <cstddef>

namespace stellaris::e2e {

/// Host seconds of one pass of the probe's fixed work: ordered-map churn,
/// small heap allocations and tanh over a short vector, the kinds of
/// instruction the workloads' engine and actors spend their time on. It
/// calls nothing in the repository's libraries, so no change to them moves
/// it; only the host's speed does. The probe runs on `threads` threads at
/// once (the calling one and threads - 1 others), as many as the workload
/// keeps busy, and returns the mean over them of each one's median of five
/// passes.
double probe_seconds(std::size_t threads);

/// What one probe pass takes on the reference host (a 4-vCPU Xeon VM at
/// 2.0 GHz, GCC 12.2, Release) in its quietest periods, on one thread or
/// on four.
inline constexpr double kReferenceProbeSeconds = 0.0009;

}  // namespace stellaris::e2e
