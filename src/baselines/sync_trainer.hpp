// Synchronous baseline trainers — the systems the paper compares against.
//
// One round-loop engine covers four architecture/billing variants
// (Fig. 1(a)–(c)):
//
//   kVanillaPpo   serverful sync actors + sync data-parallel learners
//                 (also runs IMPACT — the paper's "vanilla IMPACT")
//   kRllibLike    Ray RLlib's learner-group architecture: identical sync
//                 structure, serverful billing of the whole VM cluster
//   kMinionsLike  MinionsRL: serverless actors (per-invocation billing,
//                 dynamic scaling) + ONE centralized learner
//   kParRl        PAR-RL: MPI-style synchronous allreduce across the HPC
//                 cluster, serverful billing of all nodes
//
// Every variant runs the same local learner update (core::
// compute_learner_update) as Stellaris' learner functions, so the reward
// and cost differences isolate the architecture: barrier synchronization,
// learner parallelism, and billing model. Virtual time per round is
// max(actor wave) + shard learner time + allreduce, with the same jittered
// latency model Stellaris uses.
#pragma once

#include <memory>

#include "core/config.hpp"
#include "core/metrics.hpp"

namespace stellaris::baselines {

enum class SyncVariant { kVanillaPpo, kRllibLike, kMinionsLike, kParRl };

struct SyncConfig {
  core::TrainConfig base;         ///< env / algorithm / scale / latency
  SyncVariant variant = SyncVariant::kVanillaPpo;
  std::size_t num_learners = 4;   ///< data-parallel learners (1 forced for
                                  ///< kMinionsLike's central learner)
};

/// Run a synchronous baseline training; returns the same telemetry schema
/// as StellarisTrainer so benches can overlay the curves.
core::TrainResult run_sync_training(const SyncConfig& cfg);

}  // namespace stellaris::baselines
