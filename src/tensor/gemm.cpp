// Cache-blocked, register-tiled GEMM kernels: the Tensor-level entry points.
//
// This file is built once, for the baseline ISA. It checks shapes, counts
// FLOPs, leases pack scratch and splits the rows over the kernel pool; the
// tile loops it calls are in kernel_tier.cpp, built once per ISA tier and
// reached through the active tier's KernelTable (kernel_isa.hpp). Every
// tier gives the same bits.
//
// Scheme (see DESIGN.md "Compute kernels"):
//   * The output C is tiled over i (rows, panels of kMC) and j (columns,
//     panels of kNC); each panel is walked by an MR×NR register micro-kernel
//     that keeps a block of C in accumulator registers for the entire k
//     sweep — one store per output element instead of one load+store per
//     (element, k) step, and every B-row load is shared by MR output rows.
//   * Each output element accumulates its k products in ascending order
//     starting from 0.0f, exactly the order of the naive reference kernel,
//     so blocked results are bit-identical to ops::reference — the learner
//     stays deterministic across this rewrite. Only matmul_tn's row lanes
//     tile k: a panel's tiles sweep kTnKBlockRows (2048) rows of A and B
//     before any tile moves on, and a later block starts each accumulator
//     from the float the block before stored in C, so the chain runs on
//     unchanged, carried through C. In one sweep the arcade learner's
//     conv1 dW (75, 49 152, 8) streams its 14.7 MB lowering from DRAM
//     once per 16-row tile; in blocks it reads them from L2 (3.47 → 2.15
//     ms in the AVX-512 tier; DESIGN.md §9 has the tables). Hopper's learner products
//     have k ≤ 512 and never reach a second block. matmul_tn_carry_into
//     starts the first block from C as well, so a caller can run one
//     chain over several calls (Conv2d's frame tiles).
//   * Threading splits i into panels of kMC rows (ThreadPool::parallel_for).
//     Panels write disjoint C rows and each element is still accumulated by
//     exactly one task in the same order, so any thread count produces the
//     same bits; matmul_tn's k blocks run inside each panel. Gated by
//     kernel_parallel_min_flops() and off by default
//     (kernel_threads() == 1).
//   * Outputs narrower than one 16-column sub-tile (the policy and value
//     heads, the first convolution's 8 channels) would fall through to a
//     scalar k chain per element. A second micro-kernel, micro_rowlane,
//     runs its SIMD lanes over kRL output rows instead and broadcasts
//     single B elements; it reads the left operand as Aᵀ (k × rows,
//     contiguous in i). matmul_tn's A already has that layout, so every
//     matmul_tn with m >= kRL reads it in place; matmul and matmul_nt with
//     n < kRowLaneMaxN and m >= kRL pack each kRL-row block of A
//     transposed into scratch (pure data movement), moving square blocks
//     through registers rather than one element at a time
//     (kernel_tier.cpp, pack_rowlane_tile). matmul and matmul_nt with
//     fewer than kRL rows (the serving and actor heads) run one tile whose
//     missing rows are packed as zeros and never stored, once the product
//     is big enough to pay for it; smaller ones keep the column tiles, and
//     matmul_tn packs A transposed for them.
//   * matmul_nt packs Bᵀ once and reuses the nn micro-kernels, since a
//     dot-product micro-kernel cannot vectorize its k chain without
//     reassociating float adds.
#include <algorithm>

#include "obs/metrics.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/kernel_isa.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/thread_pool.hpp"

namespace stellaris::ops {
namespace {

// kMC is the threading grain: the row panels dispatch_row_panels hands
// to the kernel pool.
constexpr std::size_t kMC = 64;
constexpr std::size_t kRL = detail::kRowLaneRows;
// matmul and matmul_nt take the row lanes when n < kRowLaneMaxN (below
// the 16-wide column sub-tile) and m >= kRL. At n = 1 row lanes measured
// level with the scalar chain at (512, 32, 1) and up to 25% faster at
// (2048, 32, 1), so n = 1 takes them too. matmul_tn takes them at every n
// once m >= kRL: at n >= 16 they measured level with or up to 2.5x faster
// than the packed column tiles it used before, in both builds. Below kRL
// rows matmul_tn keeps the column tiles: a tile padded with zero lanes
// lost to them by 25% at (11, 512, 64) and 10x at (1, 512, 64).
constexpr std::size_t kRowLaneMaxN = 16;
// matmul and matmul_nt with n < kRowLaneMaxN and fewer than kRL rows run
// one row-lane tile padded with zero rows once m >= kPadMinRows and
// m·n >= kPadMinOutputs. Below that the column tiles' scalar chains are as
// fast: a padded tile costs a whole tile's pack and k sweep whatever m is.
constexpr std::size_t kPadMinRows = 4;
constexpr std::size_t kPadMinOutputs = 8;

obs::Counter& gemm_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.gemm_calls");
  return c;
}

obs::Counter& gemm_flop_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.gemm_flops");
  return c;
}

obs::Counter& gemm_parallel_calls() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("kernel.gemm_parallel_calls");
  return c;
}

// Run `panel(i0, i1)` over [0, m), in kMC panels across the kernel pool
// when the product is big enough and threading is enabled, serially
// otherwise. Either way each C row is written by exactly one invocation.
template <typename PanelFn>
void dispatch_row_panels(std::size_t m, std::uint64_t flops,
                         const PanelFn& panel) {
  const std::size_t threads = kernel_threads();
  const std::size_t panels = (m + kMC - 1) / kMC;
  if (threads > 1 && panels > 1 && flops >= kernel_parallel_min_flops()) {
    gemm_parallel_calls().add(1);
    detail::kernel_pool(threads).parallel_for(panels, [&](std::size_t p) {
      panel(p * kMC, std::min(m, (p + 1) * kMC));
    });
  } else if (m > 0) {
    panel(0, m);
  }
}

// C = A·B for A row-major (stride k) and B (k, n) row-major: row-lane
// tiles for narrow outputs, column tiles otherwise. Shared by nn and nt
// (packed Bᵀ). The row lanes pack each tile's rows of A transposed into a
// (k, kRL) scratch per panel — pure data movement.
void gemm_nn(const detail::KernelTable& kt, std::size_t m, std::size_t n,
             std::size_t k, const float* pa, const float* pb, float* pc,
             std::uint64_t flops) {
  const bool rowlane =
      n < kRowLaneMaxN &&
      (m >= kRL || (m >= kPadMinRows && m * n >= kPadMinOutputs));
  dispatch_row_panels(m, flops, [&](std::size_t i0, std::size_t i1) {
    if (rowlane) {
      auto pack = ScratchPool::local().take({k, kRL});
      kt.rowlane_nn_panel(i0, i1, n, k, pa, pb, pc, pack->data().data());
    } else {
      kt.gemm_nn_panel(i0, i1, n, k, pa, pb, pc);
    }
  });
}

void check_not_aliased(const Tensor& c, const Tensor& a, const Tensor& b,
                       const char* what) {
  STELLARIS_CHECK_MSG(&c != &a && &c != &b,
                      what << ": output must not alias an input");
}

}  // namespace

namespace detail {

// -- matmul (nn) -------------------------------------------------------------

void matmul_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                 const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_into");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul inner-dim mismatch: "
                                         << shape_str(a.shape()) << " x "
                                         << shape_str(b.shape()));
  c.ensure_shape({m, n});
  const std::uint64_t flops = 2ull * m * n * k;
  gemm_calls().add(1);
  gemm_flop_counter().add(flops);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  gemm_nn(kt, m, n, k, pa, pb, pc, flops);
}

// -- matmul_tn ---------------------------------------------------------------

void matmul_tn_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                    const Tensor& b, bool carry) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_tn needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_tn_into");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner-dim mismatch");
  if (carry)
    STELLARIS_CHECK_MSG(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
                        "matmul_tn_carry_into: C is "
                            << shape_str(c.shape()) << ", the product ("
                            << m << ", " << n << ")");
  else
    c.ensure_shape({m, n});
  const std::uint64_t flops = 2ull * m * n * k;
  gemm_calls().add(1);
  gemm_flop_counter().add(flops);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  if (m < kRL && carry) {
    // Too few rows for a tile, and the column tiles start from 0.0f: the
    // reference loop, each element's k terms in ascending order from C.
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
          pc[i * n + j] += pa[kk * m + i] * pb[kk * n + j];
    return;
  }
  if (m < kRL) {
    // Too few rows for a tile: pack Aᵀ into a contiguous (m, k) scratch —
    // pure data movement — and run the column tiles on it (m < kMC, so
    // one panel).
    auto pack = ScratchPool::local().take({m, k});
    float* pp = pack->data().data();
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t i = 0; i < m; ++i) pp[i * k + kk] = pa[kk * m + i];
    kt.gemm_nn_panel(0, m, n, k, pp, pb, pc);
    return;
  }
  // Aᵀ is A's own layout: the tiles read it in place.
  dispatch_row_panels(m, flops, [&](std::size_t i0, std::size_t i1) {
    kt.rowlane_tn_panel(i0, i1, m, n, k, pa, pb, pc, carry);
  });
}

// -- matmul_nt ---------------------------------------------------------------

void matmul_nt_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                    const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_nt needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_nt_into");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  STELLARIS_CHECK_MSG(b.dim(1) == k, "matmul_nt inner-dim mismatch");
  c.ensure_shape({m, n});
  const std::uint64_t flops = 2ull * m * n * k;
  gemm_calls().add(1);
  gemm_flop_counter().add(flops);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // Pack Bᵀ (n×k → k×n) once, then run the nn panels on it. A dot-product
  // micro-kernel can't be vectorized without reassociating the k chain
  // (which would break bit-exactness); the transpose is pure data movement,
  // so the nn kernel's per-element k order — ascending from 0 — is exactly
  // the reference nt order. Packed before the dispatch: panels share it.
  auto packed = ScratchPool::local().take({k, n});
  float* pp = packed->data().data();
  for (std::size_t j = 0; j < n; ++j) {
    const float* brow = pb + j * k;
    for (std::size_t kk = 0; kk < k; ++kk) pp[kk * n + j] = brow[kk];
  }
  gemm_nn(kt, m, n, k, pa, pp, pc, flops);
}

}  // namespace detail

// -- public entry points: the active tier ------------------------------------

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b) {
  detail::matmul_into(detail::active_kernels(), c, a, b);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(c, a, b);
  return c;
}

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b) {
  detail::matmul_tn_into(detail::active_kernels(), c, a, b, false);
}

void matmul_tn_carry_into(Tensor& c, const Tensor& a, const Tensor& b) {
  detail::matmul_tn_into(detail::active_kernels(), c, a, b, true);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(c, a, b);
  return c;
}

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b) {
  detail::matmul_nt_into(detail::active_kernels(), c, a, b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_nt_into(c, a, b);
  return c;
}

// -- reference kernels --------------------------------------------------------
// The seed's loops, minus the `if (aik == 0.0f) continue;` zero-skip: that
// branch silently dropped 0·NaN / 0·Inf terms (which must produce NaN) and
// cost a branch per element on dense data. Kept naive on purpose — this is
// the oracle the blocked kernels are bit-compared against.

namespace reference {

Tensor matmul(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul needs 2-D operands");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  // ikj loop order: unit-stride inner loop over both B and C rows.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_tn needs 2-D operands");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      float* crow = pc + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_nt needs 2-D operands");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  STELLARIS_CHECK_MSG(b.dim(1) == k, "matmul_nt inner-dim mismatch");
  Tensor c({m, n});
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float s = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      pc[i * n + j] = s;
    }
  }
  return c;
}

}  // namespace reference
}  // namespace stellaris::ops
