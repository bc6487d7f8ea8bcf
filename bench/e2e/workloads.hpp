// e2e_bench workloads: the four fixed shapes, one timed repetition of each,
// and the correctness checks on a repetition's virtual-time outputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/stellaris_trainer.hpp"
#include "serve/serve_engine.hpp"

namespace stellaris::e2e {

/// kBench is the measured repetition; kSmoke, a smaller one, is the
/// ctest's.
enum class Scale { kBench, kSmoke };

struct Workload {
  std::string name;
  bool serve = false;
  std::uint64_t default_seed = 1;
};

/// hopper_async, arcade_impact_par, hopper_faulty, serve_steady.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Concurrent-driver workers of arcade_impact_par: 3, so that the workers
/// plus the engine thread fit a 4-thread host; fewer on smaller hosts.
std::size_t parallel_workers();

core::TrainConfig train_config(const Workload& w, std::uint64_t seed,
                               Scale scale);
serve::ServeConfig serve_config(std::uint64_t seed, Scale scale);

/// Threads a repetition of `w` keeps busy: the calling (engine) thread, plus
/// the concurrent driver's workers when it uses that driver.
std::size_t busy_threads(const Workload& w);

/// Where bodies run in one repetition, overriding the workload's own choice.
struct DriverChoice {
  sim::DriverKind kind = sim::DriverKind::kVirtual;
  std::size_t threads = 0;
};

/// One repetition: construct (timed as set-up), run (timed), check.
struct Rep {
  double setup_s = 0.0;       ///< constructor (+ policy publish for serving)
  double run_s = 0.0;         ///< host wall time of train() / run()
  double cpu_s = 0.0;         ///< process CPU time of train() / run()
  double engine_cpu_s = 0.0;  ///< calling (engine) thread's CPU time of it
  /// Learner-consumed samples (aggregated gradients × trajectories per
  /// learner × horizon × envs per actor), or completed requests.
  double items = 0.0;
  double sim_s = 0.0;  ///< simulated seconds
  /// User-visible operations: training rounds or issued requests; `failed`
  /// counts rounds not completed or requests failed or rejected.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Checkpoints written (the constructor's seed checkpoint included) and
  /// parameter-function restores from them; 0 without a fault plan.
  std::uint64_t checkpoints = 0;
  std::uint64_t restores = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over the virtual-time outputs
  std::vector<std::string> violations;
  std::optional<core::TrainResult> train;
  std::optional<serve::ServeResult> serve;
};

Rep run_rep(const Workload& w, std::uint64_t seed, Scale scale,
            std::optional<DriverChoice> driver = std::nullopt);

/// The seed of the k-th repetition of a run seeded with `seed`; k = 0 is
/// `seed` itself, so that repetition's digest is comparable across runs.
std::uint64_t rep_seed(std::uint64_t seed, std::size_t k);

}  // namespace stellaris::e2e
