// Dense float32 tensor with value semantics.
//
// This is the numeric substrate beneath the neural-network layers: a shape
// plus contiguous row-major storage. It deliberately has no strides, views,
// or broadcasting zoo — the NN layers in src/nn/ only need contiguous 1–4D
// tensors, and keeping storage contiguous makes the serialization and
// gradient-flattening paths trivial and fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace stellaris {

class Rng;

/// Shape of a tensor: up to 4 dimensions in practice (N, C, H, W).
using Shape = std::vector<std::size_t>;

/// Number of elements implied by a shape (0 for the empty shape — this
/// library has no rank-0 scalars; the empty shape denotes the empty tensor).
std::size_t shape_numel(const Shape& shape);

/// Human-readable "[a, b, c]".
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  /// Empty tensor (numel 0, rank 0). Distinct from a scalar.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor with the given shape and explicit data (size must match).
  Tensor(Shape shape, std::vector<float> data);

  // Copies are counted in the "tensor.buffer_allocs" metric when they have
  // to (re)allocate the backing buffer; copy-assignment into a tensor whose
  // capacity already fits is allocation-free, which is what the buffer-reuse
  // paths in nn/ rely on.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;

  // -- factories ----------------------------------------------------------
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  /// I.i.d. N(0, stddev^2) entries.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f);
  /// Uniform in [lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);

  // -- introspection -------------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t i) const {
    STELLARIS_CHECK_MSG(i < shape_.size(), "dim " << i << " out of rank "
                                                  << shape_.size());
    return shape_[i];
  }
  bool empty() const { return data_.empty(); }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  // -- element access (row-major) ------------------------------------------
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }
  float& at(std::size_t i, std::size_t j);
  float at(std::size_t i, std::size_t j) const;

  /// In-place reinterpretation to a new shape with identical numel. Like
  /// the braced ensure_shape, it assigns the extents in place: no heap
  /// temporary.
  Tensor& reshape(std::initializer_list<std::size_t> shape);

  /// Adopt `shape`, reusing the existing buffer when its capacity fits
  /// (contents are then unspecified, not zeroed). The workhorse of the
  /// *_into kernels: after warm-up, repeated calls with stable shapes never
  /// allocate.
  Tensor& ensure_shape(const Shape& shape);
  /// Braced form, `ensure_shape({m, n})`: assigns the extents in place, so
  /// the call builds no temporary Shape on the heap.
  Tensor& ensure_shape(std::initializer_list<std::size_t> shape);

  /// Row `i` of a 2-D tensor as a span (no copy).
  std::span<const float> row(std::size_t i) const;
  std::span<float> row(std::size_t i);

  // -- in-place arithmetic ---------------------------------------------------
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float s);
  Tensor& fill(float v);
  Tensor& zero() { return fill(0.0f); }

  // -- reductions ------------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// L2 norm of the flattened tensor.
  float norm() const;

 private:
  static void note_alloc();

  Shape shape_;
  std::vector<float> data_;
};

/// Process-wide count of tensor buffer allocations (also exported as the
/// "tensor.buffer_allocs" counter in obs::MetricsRegistry). Buffer-reuse
/// tests assert this stays flat across warmed-up hot-path steps.
std::uint64_t tensor_buffer_allocs();

// Out-of-place arithmetic (shape-checked).
Tensor operator+(Tensor a, const Tensor& b);
Tensor operator-(Tensor a, const Tensor& b);
Tensor operator*(Tensor a, float s);
Tensor operator*(float s, Tensor a);

}  // namespace stellaris
