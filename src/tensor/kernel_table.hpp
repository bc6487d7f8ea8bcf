// The pointer-and-size kernel loops behind the Tensor-level GEMMs and
// elementwise ops, as one table of function pointers per ISA tier.
//
// kernel_tier.cpp is compiled once per tier (baseline x86-64, x86-64-v3,
// x86-64-v4 on x86-64; the one baseline tier elsewhere), each copy in its
// own translation unit and namespace; kernel_isa.cpp picks the highest tier
// the CPU and OS support, once (DESIGN.md §9 "ISA tiers"). Every tier gives
// the same bits: each output element is one k-ascending multiply-then-add
// chain, nothing is contracted into an FMA, and tanh uses only +, ×, ÷ and
// compares.
//
// A tier includes only this header and tanh_rational.hpp, and neither
// defines anything with external linkage: an inline function or variable a
// tier emitted would be a weak symbol the linker may pick for baseline
// callers, and its AVX-512 copy would fault on an older CPU (the
// kernel_tier_symbols ctest checks every tier object for such symbols).
#pragma once

#include <cstddef>

namespace stellaris::ops::detail {

/// Row-lane tile height: the row-lane kernels compute this many output rows
/// at a time, in every tier. Callers dispatch on it and size pack scratch
/// by it.
constexpr std::size_t kRowLaneRows = 16;

/// matmul_tn's k block: the row-lane tiles of a panel sweep this many rows
/// of A and B together before moving on, each element's chain carried
/// through C from one block to the next (kernel_tier.cpp,
/// rowlane_tn_panel). Tests size their k around it.
constexpr std::size_t kTnKBlockRows = 2048;

struct KernelTable {
  // -- GEMM panels: rows [i0, i1) of C (row stride n) --------------------
  /// C = A·B through the column tiles, A row-major (stride k), B (k, n).
  void (*gemm_nn_panel)(std::size_t i0, std::size_t i1, std::size_t n,
                        std::size_t k, const float* a, const float* b,
                        float* c);
  /// C = A·B through the row-lane tiles (a panel's last tile is shifted
  /// back to end at i1; a panel shorter than a tile runs one tile padded
  /// with zero rows). Each tile's rows of A are packed transposed into
  /// `pack` (k × kRowLaneRows floats) first.
  void (*rowlane_nn_panel)(std::size_t i0, std::size_t i1, std::size_t n,
                           std::size_t k, const float* a, const float* b,
                           float* c, float* pack);
  /// C = Aᵀ·B through the row-lane tiles, reading A (k, m) in place;
  /// i1 >= kRowLaneRows. With `carry` each element's chain starts from the
  /// float already in C (the chain over earlier rows of A and B) instead
  /// of 0.0f.
  void (*rowlane_tn_panel)(std::size_t i0, std::size_t i1, std::size_t m,
                           std::size_t n, std::size_t k, const float* a,
                           const float* b, float* c, bool carry);

  /// The first `cols` columns of each of `count` row-major (rows × ld)
  /// matrices stored back to back at `src`, transposed to (cols × rows)
  /// at `dst` (no overlap). Pure data movement.
  void (*transpose_each)(const float* src, std::size_t count,
                         std::size_t rows, std::size_t cols, std::size_t ld,
                         float* dst);

  // -- elementwise: n floats, outputs may alias inputs --------------------
  void (*tanh_forward)(const float* x, float* y, std::size_t n);
  /// dx = dy · (1 − y²).
  void (*tanh_backward)(const float* y, const float* dy, float* dx,
                        std::size_t n);
  void (*relu_forward)(const float* x, float* y, std::size_t n);
  /// dx = x <= 0 ? 0 : dy.
  void (*relu_backward)(const float* x, const float* dy, float* dx,
                        std::size_t n);
  /// x (m × n) += bias broadcast over rows.
  void (*add_bias_rows)(float* x, const float* bias, std::size_t m,
                        std::size_t n);
  /// x (m × n) = tanh(x + bias broadcast over rows): per element the float
  /// sum, then tanh_rational, so the bits of add_bias_rows then
  /// tanh_forward.
  void (*add_bias_tanh_rows)(float* x, const float* bias, std::size_t m,
                             std::size_t n);
  /// out (n) = column sums of x (m × n), rows added in ascending order,
  /// each from 0.0f, or with `carry` from the float already in out.
  void (*sum_rows)(const float* x, float* out, std::size_t m, std::size_t n,
                   bool carry);
};

// Each tier's one entry point. Only the tiers the build compiled exist;
// kernel_isa.cpp lists them.
namespace isa_baseline {
const KernelTable& kernels();
}
namespace isa_x86_64_v3 {
const KernelTable& kernels();
}
namespace isa_x86_64_v4 {
const KernelTable& kernels();
}

}  // namespace stellaris::ops::detail
