// Tensor kernel library: blocked matrix products, activations, the softmax
// family, and the im2col lowering used by the convolution layer.
//
// Layout (one concern per TU):
//   gemm.cpp        — cache-blocked, register-tiled, optionally threaded
//                     GEMM variants
//   elementwise.cpp — activations, softmax family, bias/row reductions
//   kernel_tier.cpp — the pointer-and-size loops behind both, built once
//                     per ISA tier (kernel_table.hpp)
//   kernel_isa.*    — picks the tier for this CPU at first use
//   ops.cpp         — convolution lowering (im2col / col2im)
//   kernel_config.* — threading knobs shared by the kernels
//   scratch.*       — reusable scratch-tensor pool
//
// Every kernel comes in two forms: a value-returning convenience wrapper
// and an `*_into` out-parameter variant that reshapes its destination in
// place and fully overwrites it — after warm-up the `_into` form never
// allocates, which is what keeps the learner step allocation-free.
//
// Determinism contract: the blocked GEMMs tile only the i/j (output)
// dimensions; each output element accumulates its k terms in ascending
// order starting from 0, exactly like the naive reference kernels below.
// Results are therefore bit-identical to ops::reference, with threading on
// or off, at any thread count.
//
// tanh is an in-repo rational approximation, not libm's tanhf (≤ 6 ulp,
// ≤ 3.9e-7 absolute). It is built without FMA contraction, so its bits
// depend on neither the libm version nor -march; see tanh_rational.hpp.
// The same holds for the GEMMs: every ISA tier gives the same bits.
//
// The convolution lowering copies whole kernel-width runs, and the row-lane
// GEMM packs its transposed operand block by block (kernel_tier.cpp); both
// are pure data movement, so neither changes a bit.
//
// The naive seed loops are retained under ops::reference (minus a
// zero-skip branch that broke IEEE NaN/Inf propagation; tanh is the same
// formula as the kernel, evaluated one element at a time): they are the
// bit-exactness oracle for the test suite and the "before" baseline for
// the kernel-perf harness (bench/micro_substrates --json=...).
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace stellaris::ops {

// -- matrix products ---------------------------------------------------------
// The `_into` variants reject an output that aliases an input.

/// C = A (m×k) * B (k×n).
Tensor matmul(const Tensor& a, const Tensor& b);
void matmul_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = Aᵀ (k×m becomes m×k) * B — used in backward passes without
/// materializing transposes.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b);
/// matmul_tn_into continuing C's chains: C must already be (m, n), and
/// each element adds its k terms, in ascending order, to the float it
/// holds. So matmul_tn over rows [0, k) of A and B equals matmul_tn over
/// rows [0, k₁) followed by this over [k₁, k), bit for bit.
void matmul_tn_carry_into(Tensor& c, const Tensor& a, const Tensor& b);

/// C = A * Bᵀ.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b);

// -- bias / reductions -------------------------------------------------------
/// y = x (m×n) with row-broadcast bias (n) added, in place.
void add_bias_rows(Tensor& x, const Tensor& bias);
/// x (m×n) = tanh(x + row-broadcast bias), in place: the bits of
/// add_bias_rows then tanh_forward_into in one pass. Counted as both
/// passes' elements.
void add_bias_tanh_rows(Tensor& x, const Tensor& bias);

/// Transpose the first `cols` columns of each of `count` row-major
/// (rows × ld) matrices stored back to back at `src` into (cols × rows) at
/// `dst`, which must not overlap it: the convolution's reorder to and from
/// channel-major rows (ld = cols), or of one torso's columns of a joint
/// product (ld > cols). Moves register-transposed 4 × 4 blocks; pure data
/// movement.
void transpose_each(const float* src, std::size_t count, std::size_t rows,
                    std::size_t cols, std::size_t ld, float* dst);

/// Column-sum of a 2-D tensor -> 1-D (n); the bias gradient.
Tensor sum_rows(const Tensor& x);
void sum_rows_into(Tensor& out, const Tensor& x);
/// sum_rows_into continuing out's sums: out must already be (n), and each
/// column adds x's rows, in ascending order, to the float it holds.
void sum_rows_carry_into(Tensor& out, const Tensor& x);

// -- activations (out-of-place forward, gradient helpers) -------------------
// For the `_into` forms the output may alias the primary input.
Tensor tanh_forward(const Tensor& x);
void tanh_forward_into(Tensor& y, const Tensor& x);
/// dx = dy * (1 - y²) where y = tanh(x) from the forward pass.
Tensor tanh_backward(const Tensor& y, const Tensor& dy);
void tanh_backward_into(Tensor& dx, const Tensor& y, const Tensor& dy);

Tensor relu_forward(const Tensor& x);
void relu_forward_into(Tensor& y, const Tensor& x);
/// dx = dy ⊙ 1[x > 0].
Tensor relu_backward(const Tensor& x, const Tensor& dy);
void relu_backward_into(Tensor& dx, const Tensor& x, const Tensor& dy);

// -- softmax family (row-wise over 2-D tensors) ------------------------------
/// Row-wise softmax with max-subtraction for stability.
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(Tensor& p, const Tensor& logits);
/// Row-wise log-softmax.
Tensor log_softmax_rows(const Tensor& logits);
void log_softmax_rows_into(Tensor& lp, const Tensor& logits);

// -- convolution lowering -----------------------------------------------------
/// Parameters of a 2-D convolution (square kernel/stride, zero padding).
struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
};

/// Throws stellaris::Error unless stride, kernel and in_channels are
/// positive and the kernel fits the padded input, the conditions under
/// which out_h() and out_w() are defined. The lowering functions and
/// nn::Conv2d check this before computing an output size.
void check_conv_spec(const Conv2dSpec& spec);

/// Lower an input batch (N, C·H·W flattened rows) into the im2col matrix
/// with shape (N·out_h·out_w, C·k·k): each row is one receptive field.
/// Copies each (c, ky) run of k input columns whole, with compile-time
/// run lengths for k = 3 and 5; padding is zero-filled per run.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);
void im2col_into(Tensor& cols, const Tensor& input, const Conv2dSpec& spec);
/// im2col_into of frames [f0, f1) of `input` only: rows
/// [f0·out_h·out_w, f1·out_h·out_w) of the whole batch's lowering, for a
/// caller that lowers a batch one tile of frames at a time (nn::Conv2d).
void im2col_frames_into(Tensor& cols, const Tensor& input,
                        const Conv2dSpec& spec, std::size_t f0,
                        std::size_t f1);

/// Inverse scatter of im2col — accumulates column gradients back into the
/// input-gradient layout (N, C·H·W), run by run in im2col's order, so each
/// input element's additions happen in the reference order.
void col2im_into(Tensor& out, const Tensor& cols, const Conv2dSpec& spec,
                 std::size_t batch);
/// col2im_into for frames [f0, f1): `cols` is their lowering gradient, and
/// `out`, already (N, C·H·W) with N >= f1, gets rows [f0, f1) overwritten
/// and no other row touched. Frames do not overlap, so scattering a batch
/// tile by tile gives col2im_into's bits.
void col2im_frames_into(Tensor& out, const Tensor& cols,
                        const Conv2dSpec& spec, std::size_t f0,
                        std::size_t f1);

// -- reference kernels --------------------------------------------------------
// Naive scalar loops, kept as the semantic oracle for the bit-exactness
// suite and as the "before" side of the kernel-perf harness. Not used by
// any production path. reference::tanh_forward evaluates the kernel's
// rational formula unvectorized; the tests check its accuracy against
// double-precision std::tanh.
namespace reference {

Tensor matmul(const Tensor& a, const Tensor& b);
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor sum_rows(const Tensor& x);
Tensor tanh_forward(const Tensor& x);
Tensor relu_forward(const Tensor& x);
Tensor softmax_rows(const Tensor& logits);
Tensor log_softmax_rows(const Tensor& logits);
/// The lowering with one bounds check per element.
Tensor im2col(const Tensor& input, const Conv2dSpec& spec);
Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::size_t batch);

}  // namespace reference

}  // namespace stellaris::ops
