// Actor–critic model: a policy network and a value network built to the
// paper's Table II architectures, plus the flat-vector parameter interface
// used to ship policies and gradients through the distributed cache.
//
// Table II (paper):           This repo (scaled for a single-core box):
//   MuJoCo: 2×256 FC, Tanh      2×H FC (H configurable, default 64), Tanh
//   Atari:  16 8×8 / 32 4×4 /   conv stack + FC head, configurable
//           256 11×11, ReLU
// The critic shares the policy architecture (separate weights), as in the
// paper.
//
// forward(obs) runs both heads on one batch. On a CNN torso both first
// convolutions read the same input, so forward runs them together
// (Conv2d::forward_joint): each frame tile of obs is lowered once and
// multiplied once by both convs' weights side by side, [W_policy |
// W_value]; at 8 channels each that is one 16-wide product that reads the
// tile's lowering once, where two 8-wide ones read it twice. Each conv
// records obs as its input and backprops alone, re-lowering it tile by
// tile; policy_forward and value_forward run one torso each, for callers
// that need one head. Either way the caller keeps obs alive and unchanged
// until the backward calls.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace stellaris::nn {

/// Continuous (diagonal Gaussian) vs discrete (categorical) action space.
enum class ActionKind { kContinuous, kDiscrete };

/// Observation layout. Vector observations set only `flat_dim`; image
/// observations also carry the (C, H, W) geometry for the conv torso.
struct ObsSpec {
  std::size_t flat_dim = 0;
  bool image = false;
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;

  static ObsSpec vector(std::size_t dim) { return {dim, false, 0, 0, 0}; }
  static ObsSpec planes(std::size_t c, std::size_t h, std::size_t w) {
    return {c * h * w, true, c, h, w};
  }
};

/// Network topology. Either an MLP (hidden sizes + Tanh) or a conv stack
/// followed by one FC hidden layer (+ ReLU), mirroring Table II.
struct NetworkSpec {
  struct ConvLayer {
    std::size_t out_channels;
    std::size_t kernel;
    std::size_t stride;
  };

  bool use_cnn = false;
  std::vector<std::size_t> hidden = {64, 64};  // MLP path
  std::vector<ConvLayer> convs;                // CNN path
  std::size_t fc_hidden = 128;                 // CNN path final FC

  /// Table II MuJoCo row, width-scaled.
  static NetworkSpec mujoco(std::size_t width = 64);
  /// Table II Atari row, geometry-scaled to this repo's arcade frames.
  static NetworkSpec atari();
};

/// Policy + value networks with explicit backprop and flat (de)serialization.
class ActorCritic {
 public:
  ActorCritic(const ObsSpec& obs, ActionKind kind, std::size_t act_dim,
              const NetworkSpec& net, std::uint64_t seed);

  // Non-copyable (layers own big buffers).
  // Non-movable too: the cached parameter/gradient lists point into this
  // object's members (log_std_, dlog_std_), so a move would dangle them.
  ActorCritic(const ActorCritic&) = delete;
  ActorCritic& operator=(const ActorCritic&) = delete;
  ActorCritic(ActorCritic&&) = delete;
  ActorCritic& operator=(ActorCritic&&) = delete;

  ActionKind kind() const { return kind_; }
  std::size_t act_dim() const { return act_dim_; }

  /// Both heads on one observation batch, bit-identical to policy_forward
  /// and value_forward on it; the references follow those calls' validity.
  struct Heads {
    const Tensor& policy;
    const Tensor& values;
  };
  Heads forward(const Tensor& obs);

  /// Policy head output: Gaussian means (batch, act_dim) or logits
  /// (batch, n_actions). The reference is owned by the policy net and stays
  /// valid until its next forward/backward call.
  const Tensor& policy_forward(const Tensor& obs);
  /// Push dL/d(policy output) back through the policy net, accumulating
  /// its parameter gradients; the observation gradient is not computed.
  void policy_backward(const Tensor& dout);

  /// State values, shape (batch); reference valid until the next
  /// value_forward or forward call.
  const Tensor& value_forward(const Tensor& obs);
  /// Push dL/d(values), shape (batch); like policy_backward, parameter
  /// gradients only.
  void value_backward(const Tensor& dvalues);

  /// Learned log-std vector (continuous only; nullptr for discrete).
  Tensor* log_std();
  const Tensor* log_std() const;
  Tensor* log_std_grad();

  /// Every parameter tensor in flat-vector order (policy net, log-std,
  /// value net) and the parallel gradient accumulators. Built once by the
  /// constructor; the references stay valid for the model's lifetime.
  const std::vector<Tensor*>& parameters() { return params_; }
  const std::vector<Tensor*>& gradients() { return grads_; }
  void zero_grad();

  // -- flat-vector interface (cache wire format) ---------------------------
  /// (offset, length) of the log-std segment inside the flat parameter
  /// vector, or (0, 0) for discrete policies. Optimizers clamp this segment
  /// to a sane range after each step: with small batches the log-std
  /// gradient is noise-dominated, and adaptive optimizers would otherwise
  /// random-walk σ into degenerate exploration.
  std::pair<std::size_t, std::size_t> log_std_span() const;
  std::size_t flat_size() const { return flat_size_; }
  std::vector<float> flat_params() const;
  void set_flat_params(std::span<const float> flat);
  std::vector<float> flat_grads() const;
  /// flat_grads() into `out`, resized to flat_size(): a caller that reads
  /// the gradients every step reuses one buffer.
  void flat_grads_into(std::vector<float>& out) const;

 private:
  Sequential build_torso(std::size_t out_dim, Rng& rng) const;
  void check_obs(const Tensor& obs) const;

  ObsSpec obs_;
  ActionKind kind_;
  std::size_t act_dim_;
  NetworkSpec net_spec_;

  Sequential policy_net_;
  Sequential value_net_;
  Tensor log_std_;       // (act_dim) for continuous; empty for discrete
  Tensor dlog_std_;
  Tensor value_out_;     // value_forward result, reshaped to (batch)
  Tensor dvalues_2d_;    // value_backward input, reshaped to (batch, 1)
  // CNN torsos: the first conv of each net, run together by forward().
  Conv2d* policy_conv_ = nullptr;
  Conv2d* value_conv_ = nullptr;

  // Built once in the constructor (parameter shapes never change).
  std::vector<Tensor*> params_;
  std::vector<Tensor*> grads_;
  std::size_t log_std_offset_ = 0;  // numel of the policy net's parameters
  std::size_t flat_size_ = 0;
};

}  // namespace stellaris::nn
