// VM catalog and cluster specifications, matching the paper's testbeds
// (§VIII-A) and its US-East-2 hourly prices (footnote 2):
//   regular: 2× p3.2xlarge ($3.06, 1 V100) + 1× c6a.32xlarge ($4.896,
//            128 cores) → 2 GPUs, 128 actor cores
//   HPC:     2× p3.16xlarge ($24.48, 8 V100) + 5× hpc7a.96xlarge ($7.20,
//            192 cores) → 16 GPUs, 960 actor cores
// The paper caps learner functions at 4 per V100 and runs 1 actor per core;
// both are ClusterSpec fields so benches can sweep them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace stellaris::serverless {

struct VmType {
  std::string name;
  double hourly_price_usd = 0.0;
  std::size_t gpus = 0;
  std::size_t vcpus = 0;
  double gpu_tflops = 0.0;  ///< per-GPU sustained fp32

  static VmType p3_2xlarge();
  static VmType c6a_32xlarge();
  static VmType c6a_8xlarge();
  static VmType p3_16xlarge();
  static VmType hpc7a_96xlarge();
};

struct ClusterSpec {
  struct Group {
    VmType type;
    std::size_t count = 1;
  };
  std::vector<Group> vms;
  std::size_t learner_slots_per_gpu = 4;  ///< §VIII-A: capacity 4 per V100

  std::size_t total_gpus() const;
  /// Max concurrently running learner functions across the cluster.
  std::size_t learner_slots() const;
  /// Max concurrently running serverless actors (1 per CPU core on the
  /// CPU-only VMs; GPU VMs host learners, not actors, as in the paper).
  std::size_t actor_slots() const;

  /// Paper's cost model: dollars-per-second of one learner slot = GPU VM
  /// hourly price / 3600 / slots-per-VM.
  double learner_unit_price() const;
  /// Dollars-per-second of one actor core.
  double actor_unit_price() const;
  /// Sustained TFLOPS available to each learner slot.
  double per_slot_tflops() const;

  static ClusterSpec regular();
  /// The regular testbed right-sized to a 32-core actor fleet — used by the
  /// reduced-scale benches so serverful baselines aren't billed for cores
  /// they could never use at this repo's actor counts.
  static ClusterSpec regular_small();
  static ClusterSpec hpc();
};

}  // namespace stellaris::serverless
