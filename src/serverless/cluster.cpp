#include "serverless/cluster.hpp"

#include "util/error.hpp"

namespace stellaris::serverless {

VmType VmType::p3_2xlarge() {
  return {"p3.2xlarge", 3.06, 1, 8, 14.0};
}

VmType VmType::c6a_32xlarge() {
  return {"c6a.32xlarge", 4.896, 0, 128, 0.0};
}

VmType VmType::c6a_8xlarge() {
  return {"c6a.8xlarge", 1.224, 0, 32, 0.0};
}

VmType VmType::p3_16xlarge() {
  return {"p3.16xlarge", 24.48, 8, 64, 14.0};
}

VmType VmType::hpc7a_96xlarge() {
  return {"hpc7a.96xlarge", 7.2, 0, 192, 0.0};
}

std::size_t ClusterSpec::total_gpus() const {
  std::size_t n = 0;
  for (const auto& g : vms) n += g.type.gpus * g.count;
  return n;
}

std::size_t ClusterSpec::learner_slots() const {
  return total_gpus() * learner_slots_per_gpu;
}

std::size_t ClusterSpec::actor_slots() const {
  std::size_t n = 0;
  for (const auto& g : vms)
    if (g.type.gpus == 0) n += g.type.vcpus * g.count;
  return n;
}

double ClusterSpec::learner_unit_price() const {
  // Price of the cheapest GPU-bearing VM divided by its learner capacity.
  for (const auto& g : vms) {
    if (g.type.gpus == 0) continue;
    const double slots =
        static_cast<double>(g.type.gpus * learner_slots_per_gpu);
    return g.type.hourly_price_usd / 3600.0 / slots;
  }
  throw ConfigError("cluster has no GPU VMs for learners");
}

double ClusterSpec::actor_unit_price() const {
  for (const auto& g : vms) {
    if (g.type.gpus != 0) continue;
    return g.type.hourly_price_usd / 3600.0 /
           static_cast<double>(g.type.vcpus);
  }
  throw ConfigError("cluster has no CPU VMs for actors");
}

double ClusterSpec::per_slot_tflops() const {
  for (const auto& g : vms)
    if (g.type.gpus > 0)
      return g.type.gpu_tflops /
             static_cast<double>(learner_slots_per_gpu);
  throw ConfigError("cluster has no GPU VMs");
}

ClusterSpec ClusterSpec::regular() {
  ClusterSpec spec;
  spec.vms = {{VmType::p3_2xlarge(), 2}, {VmType::c6a_32xlarge(), 1}};
  return spec;
}

ClusterSpec ClusterSpec::regular_small() {
  ClusterSpec spec;
  spec.vms = {{VmType::p3_2xlarge(), 2}, {VmType::c6a_8xlarge(), 1}};
  return spec;
}

ClusterSpec ClusterSpec::hpc() {
  ClusterSpec spec;
  spec.vms = {{VmType::p3_16xlarge(), 2}, {VmType::hpc7a_96xlarge(), 5}};
  return spec;
}

}  // namespace stellaris::serverless
