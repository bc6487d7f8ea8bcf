// Wire encoding for policy snapshots in the distributed cache, plus the
// key-naming conventions shared by actors, learners, and the parameter
// function.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/serialize.hpp"

namespace stellaris::core {

/// Cache key layout:
///   policy/latest            — current policy weights + version
///   policy/target            — IMPACT target network weights
///   ckpt/latest              — parameter-function checkpoint (recovery)
///   traj/<id>                — serialized SampleBatch from an actor
///   grad/<id>                — serialized GradientMsg from a learner
namespace keys {
inline const std::string kPolicyLatest = "policy/latest";
inline const std::string kPolicyTarget = "policy/target";
inline const std::string kCheckpoint = "ckpt/latest";
std::string trajectory(std::uint64_t id);
std::string gradient(std::uint64_t id);
}  // namespace keys

/// A parameter-function checkpoint: everything needed to restore training
/// after a crash — policy weights, version counter, applied-gradient count,
/// and the full optimizer state blob (written by FlatOptimizer::save_state).
struct Checkpoint {
  std::vector<float> params;
  std::uint64_t version = 0;
  std::uint64_t applied_gradients = 0;
  std::vector<std::uint8_t> optimizer_state;
};

std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ckpt);
Checkpoint decode_checkpoint(ByteSpan bytes);
/// Decode into an existing Checkpoint, reusing its buffers' capacity.
void decode_checkpoint_into(ByteSpan bytes, Checkpoint& out);

/// Encode flat policy weights with their version.
std::vector<std::uint8_t> encode_policy(const std::vector<float>& params,
                                        std::uint64_t version);

/// Decode into an existing params buffer (capacity reuse); returns version.
std::uint64_t decode_policy_into(ByteSpan bytes, std::vector<float>& params);

}  // namespace stellaris::core
