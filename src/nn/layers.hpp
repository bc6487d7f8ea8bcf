// Neural-network layers with explicit forward/backward passes.
//
// No tape autograd: every layer caches exactly what its backward pass needs
// during forward, and backward(dy) both returns dx and accumulates parameter
// gradients. backward_params(dy) accumulates the same parameter gradients,
// bit for bit, without computing dx — for a network's first layer, whose
// input gradient nobody reads. This keeps the training loop deterministic
// and allocation patterns obvious — important because learner functions
// serialize whole gradient sets into the distributed cache every round.
//
// forward/backward return references to buffers owned by the layer, written
// through the ops::*_into kernels: once every buffer has grown to the
// steady-state batch shape, a training step performs zero heap allocations
// (verified by the tensor_buffer_allocs() counter in the layer tests). The
// returned reference is valid until the next forward/backward call on the
// same layer; callers that need the data to outlive that copy it.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace stellaris {

class Rng;

namespace nn {

/// Abstract layer. Batch-major: inputs are (batch, features).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute outputs; caches whatever backward() needs. The reference stays
  /// valid until the next call on this layer.
  virtual const Tensor& forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulate parameter grads and return dL/d(input).
  /// Must be called after the matching forward(). The reference stays valid
  /// until the next call on this layer.
  virtual const Tensor& backward(const Tensor& dy) = 0;

  /// backward(dy) without dL/d(input): accumulates the same parameter
  /// grads. Layers that can skip their input-gradient step override it.
  virtual void backward_params(const Tensor& dy) { backward(dy); }

  /// Learnable parameter tensors (empty for activations).
  virtual std::vector<Tensor*> parameters() { return {}; }
  /// Gradient accumulators, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  virtual std::string name() const = 0;
};

/// What a Linear layer applies to x·W + b.
enum class Activation { kNone, kTanh };

/// Fully-connected layer: y = act(x·W + b), W is (in, out). With kTanh,
/// forward adds the bias and applies tanh in one pass over the product
/// (ops::add_bias_tanh_rows), and backward scales dy by tanh′ = 1 − y²
/// before the weight and input gradients; the bits are those of a Linear
/// followed by a separate tanh layer.
///
/// forward borrows its input instead of copying it: backward reads the
/// input of the last forward for the weight gradient, so that input must
/// stay alive and unchanged until the matching backward (Conv2d's contract
/// too). Inside a Sequential the input is the previous layer's output
/// buffer, which lives until that layer's next call.
class Linear final : public Layer {
 public:
  Linear(std::size_t in, std::size_t out, Rng& rng,
         Activation act = Activation::kNone);

  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&dw_, &db_}; }
  std::string name() const override { return "Linear"; }

 private:
  /// Accumulate the parameter grads for dL/dy and return dL/d(x·W + b):
  /// dy itself without an activation, tanh′-scaled into dz_ with one.
  const Tensor& accumulate_params(const Tensor& dy);

  Activation act_;
  Tensor w_, b_;
  Tensor dw_, db_;
  const Tensor* input_ = nullptr;  // the last forward's input, borrowed
  Tensor out_, dx_;             // persistent forward/backward outputs
  Tensor dz_;                   // tanh′-scaled dy (kTanh only)
  Tensor dw_step_, db_step_;    // per-step grads, folded into dw_/db_ with +=
};

/// Float budget of one Conv2d tile's im2col lowering (512 KB, within one
/// core's L2). A tile holds max(1, kConvTileFloats / (out_h·out_w·C·k·k))
/// frames, so the budget sets the frames per tile for each spec, the way
/// kValueChunkFloats sets the rows of a chunked value forward: 27 frames
/// for NetworkSpec::atari()'s first conv on 3×20×20 frames, 202 for its
/// second. See DESIGN.md §9.
inline constexpr std::size_t kConvTileFloats = std::size_t{1} << 17;

/// 2-D convolution via im2col lowering; input rows are flattened (C,H,W).
///
/// Every pass runs over tiles of tile_frames() frames, with the tile's
/// buffers leased from the thread's ScratchPool, so no buffer but the
/// output and dx grows with the batch:
///   * forward lowers a tile, multiplies it by W, adds the bias and
///     reorders the product into the tile's rows of the channel-major
///     output. Rows are independent, so the bits are the whole batch's.
///   * backward_params lowers each tile again from the input the last
///     forward recorded, reorders the tile's rows of dy back, and carries
///     dW's and db's chains from tile to tile through C
///     (ops::matmul_tn_carry_into, ops::sum_rows_carry_into): each element
///     is still one k-ascending chain over the whole batch.
///   * backward also multiplies each tile's reordered dy by Wᵀ and
///     scatters it into the tile's rows of dx (frames do not overlap).
///
/// forward borrows its input, as Linear does: backward reads the input of
/// the last forward, so it must stay alive and unchanged until the
/// matching backward. forward_joint runs two convs of one spec on one
/// input (ActorCritic::forward's two torsos) as one product per tile.
class Conv2d final : public Layer {
 public:
  Conv2d(ops::Conv2dSpec spec, Rng& rng);

  const Tensor& forward(const Tensor& x) override;
  /// a.forward(x) and b.forward(x), bit for bit, for two convs of one
  /// spec: each tile is lowered once and multiplied once by both convs'
  /// weights side by side, [W_a | W_b]. Every element of that product is
  /// the k-ascending chain of its own conv's product. Both convs record x
  /// as their input; the references are their outputs.
  static std::pair<const Tensor&, const Tensor&> forward_joint(
      Conv2d& a, Conv2d& b, const Tensor& x);
  const Tensor& backward(const Tensor& dy) override;
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> parameters() override { return {&w_, &b_}; }
  std::vector<Tensor*> gradients() override { return {&dw_, &db_}; }
  std::string name() const override { return "Conv2d"; }

  const ops::Conv2dSpec& spec() const { return spec_; }
  /// Frames per tile: max(1, kConvTileFloats / (out_h·out_w·C·k·k)).
  std::size_t tile_frames() const;

 private:
  /// The forward of `count` convs of one spec (this one, or
  /// forward_joint's two) whose weights and biases sit side by side in
  /// `w` and `b`.
  static void forward_tiles(const Tensor& x, Conv2d* const* convs,
                            std::size_t count, const Tensor& w,
                            const Tensor& b);
  /// backward_params, and with `dx` backward's input gradient into it.
  void backward_tiles(const Tensor& dy, Tensor* dx);

  ops::Conv2dSpec spec_;
  Tensor w_;   // (C·k·k, out_channels)
  Tensor b_;   // (out_channels)
  Tensor dw_, db_;
  const Tensor* input_ = nullptr;  // the last forward's input, borrowed
  Tensor out_, dx_;                // persistent forward/backward outputs
  Tensor dw_step_, db_step_;
};

/// y = (x < 0 ? 0 : x). backward masks on the output it kept: y <= 0
/// exactly when x <= 0, for every float including -0.0 and NaN, so no copy
/// of the input is needed.
class Relu final : public Layer {
 public:
  const Tensor& forward(const Tensor& x) override;
  const Tensor& backward(const Tensor& dy) override;
  std::string name() const override { return "Relu"; }

 private:
  Tensor out_, dx_;
};

/// Ordered pipeline of layers.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer);

  const Tensor& forward(const Tensor& x) override;
  /// forward() through layers first..N-1 only, with `x` as the input of
  /// layer `first` (its own caller ran layers 0..first-1).
  const Tensor& forward_from(std::size_t first, const Tensor& x);
  const Tensor& backward(const Tensor& dy) override;
  /// backward() through layers N-1..1, backward_params() on layer 0.
  void backward_params(const Tensor& dy) override;
  std::vector<Tensor*> parameters() override;
  std::vector<Tensor*> gradients() override;
  std::string name() const override { return "Sequential"; }

  Layer& layer(std::size_t i) { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  Tensor passthrough_;  // only used when the pipeline is empty
};

}  // namespace nn
}  // namespace stellaris
