// Trajectory containers — the training-data unit that flows from actors
// through the distributed cache to learner functions.
//
// Struct-of-arrays layout: a batch of T timesteps holds tensors for
// observations, actions, rewards, dones, behaviour log-probs (log μ(a|s)),
// and value estimates at sample time. After advantage estimation the batch
// also carries GAE advantages and value targets. Batches serialize to the
// cache wire format; the byte size drives the data-passing latency model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/actor_critic.hpp"
#include "tensor/tensor.hpp"
#include "util/serialize.hpp"

namespace stellaris::rl {

/// Float budget of the observations in one chunked forward over a batch's
/// stored rows: VecActor's value forwards and IMPACT's target log-probs.
/// Layer buffers grow to the largest row count they see, so a whole-batch
/// forward would raise peak RSS on image observations; 16384 floats keep a
/// chunk near the per-step forward's size (13 rows of a 1200-dim frame).
/// See DESIGN.md §17.
inline constexpr std::size_t kValueChunkFloats = 16384;

struct SampleBatch {
  nn::ActionKind action_kind = nn::ActionKind::kContinuous;

  Tensor obs;                            ///< (T, obs_dim)
  Tensor actions_cont;                   ///< (T, act_dim) — continuous only
  std::vector<std::size_t> actions_disc; ///< (T) — discrete only
  Tensor rewards;                        ///< (T)
  Tensor dones;                          ///< (T), 1.0 at episode boundaries
  Tensor behaviour_log_probs;            ///< (T) log μ(a_t|s_t)
  Tensor values;                         ///< (T) V(s_t) at sample time

  /// Bootstrap value V(s_T) if the final transition was truncated (not a
  /// true terminal); ignored when the batch ends on done.
  float bootstrap_value = 0.0f;

  /// Independent trajectory segments inside this batch. Empty means one
  /// segment covering the whole batch with `bootstrap_value`. concat()
  /// fills this so that GAE / V-trace never bootstrap across the seam
  /// between two different actors' rollouts.
  struct Segment {
    std::size_t start = 0;
    float bootstrap = 0.0f;
  };
  std::vector<Segment> segments;

  /// Segments with explicit end indices (resolves the implicit layout).
  struct SegmentView {
    std::size_t start = 0;
    std::size_t end = 0;  ///< one past the last index
    float bootstrap = 0.0f;
  };
  std::vector<SegmentView> segment_views() const;

  /// Version of the actor policy μ that sampled this batch; the staleness
  /// bookkeeping and IS truncation key off this.
  std::uint64_t policy_version = 0;

  // Filled by compute_gae():
  Tensor advantages;  ///< (T)
  Tensor value_targets;  ///< (T)

  /// Episode returns completed while sampling this batch (for reward
  /// curves).
  std::vector<double> episode_returns;

  std::size_t size() const { return rewards.numel(); }
  bool has_advantages() const { return !advantages.empty(); }

  /// Wire round-trip (the "pickle" of the system).
  std::vector<std::uint8_t> serialize() const;
  static SampleBatch deserialize(ByteSpan bytes);
  /// Decode into an existing batch, reusing its tensor buffers (zero
  /// allocations once `out` has seen the incoming shapes).
  static void deserialize_into(ByteSpan bytes, SampleBatch& out);

  /// Decode several serialized batches straight into one: `out` ends
  /// bit-identical to deserialize_into for one payload, and to concat of
  /// each payload's deserialize_into for more (seams, last bootstrap, first
  /// policy version, advantages only when every part has them), but each
  /// payload's rows land at their offset in `out`'s buffers, with no
  /// per-part batch in between. Reuses `out`'s capacity. A learner merges
  /// its trajectories with it.
  static void deserialize_concat_into(std::span<const ByteSpan> payloads,
                                      SampleBatch& out);

  /// Concatenate batches (all must share layout and policy version rules
  /// don't apply — used by learners that merge several actor submissions).
  static SampleBatch concat(std::span<const SampleBatch> parts);
  static SampleBatch concat(const std::vector<SampleBatch>& parts) {
    return concat(std::span<const SampleBatch>(parts));
  }
  static SampleBatch concat(std::initializer_list<SampleBatch> parts) {
    return concat(std::span<const SampleBatch>(parts.begin(), parts.size()));
  }
};

}  // namespace stellaris::rl
