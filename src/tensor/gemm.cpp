// Cache-blocked, register-tiled GEMM kernels.
//
// Scheme (see DESIGN.md "Compute kernels"):
//   * The output C is tiled over i (rows, panels of kMC) and j (columns,
//     panels of kNC); each panel is walked by an MR×NR register micro-kernel
//     that keeps a block of C in accumulator registers for the entire k
//     sweep — one store per output element instead of one load+store per
//     (element, k) step, and every B-row load is shared by MR output rows.
//   * k is deliberately NOT tiled. Each output element accumulates its k
//     products in ascending order starting from 0.0f, exactly the order of
//     the naive reference kernel, so blocked results are bit-identical to
//     ops::reference — the learner stays deterministic across this rewrite.
//   * Threading splits i into panels of kMC rows (ThreadPool::parallel_for).
//     Panels write disjoint C rows and each element is still accumulated by
//     exactly one task in the same order, so any thread count produces the
//     same bits. Gated by kernel_parallel_min_flops() and off by default
//     (kernel_threads() == 1).
//   * Outputs narrower than one 16-column sub-tile (the policy and value
//     heads, the first convolution's 8 channels) would fall through to a
//     scalar k chain per element. A second micro-kernel, micro_rowlane,
//     runs its SIMD lanes over kRL output rows instead and broadcasts
//     single B elements; it reads the left operand as Aᵀ (k × rows,
//     contiguous in i). matmul_tn's A already has that layout, so every
//     matmul_tn with m >= kRL reads it in place; matmul and matmul_nt with
//     n < kRowLaneMaxN and m >= kRL pack each kRL-row block of A
//     transposed into scratch (pure data movement). Products with fewer
//     than kRL rows keep the column tiles; matmul_tn packs A transposed
//     for them.
//   * matmul_nt packs Bᵀ once and reuses the nn micro-kernels, since a
//     dot-product micro-kernel cannot vectorize its k chain without
//     reassociating float adds.
#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "tensor/kernel_config.hpp"
#include "tensor/ops.hpp"
#include "tensor/scratch.hpp"
#include "util/thread_pool.hpp"

namespace stellaris::ops {
namespace {

// Register tile and cache panels. 4×48 accumulators measured fastest for
// the -march=native AVX-512 build (three 16-lane accumulator columns per
// row keep both FMA ports busy) while staying ahead of the reference ikj
// kernel in the portable build; kMC is also the threading grain. Column
// edges are handled by compile-time sub-tiles (32, then 16, then a scalar
// tail) because a runtime-bound tile defeats the vectorizer.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 48;
constexpr std::size_t kMC = 64;
constexpr std::size_t kNC = 240;  // multiple of kNR: edge tiles only at the true edge

// Row-lane tile (micro_rowlane): kRL output rows held as kRL / kVL vectors
// of the target's SIMD width, times kNJ columns. kNJ is the widest column
// group whose accumulators stay in registers: 4 × (4 SSE registers) in the
// portable build, 8 zmm registers under AVX-512. Under AVX-512 8 beat 4 by
// 13–33% on (75, 6144, 8) and wide matmul_tn; in the portable build 8 lost
// 6–36% (4-vCPU Xeon VM, GCC 12, best of 5 interleaved runs). The AVX2
// width is the portable kNJ, not tuned.
constexpr std::size_t kRL = 16;
#if defined(__AVX512F__)
constexpr std::size_t kVL = 16;
constexpr std::size_t kNJ = 8;
#elif defined(__AVX__)
constexpr std::size_t kVL = 8;
constexpr std::size_t kNJ = 4;
#else
constexpr std::size_t kVL = 4;
constexpr std::size_t kNJ = 4;
#endif
// matmul and matmul_nt take the row lanes when n < kRowLaneMaxN (below
// the 16-wide column sub-tile) and m >= kRL. At n = 1 row lanes measured
// level with the scalar chain at (512, 32, 1) and up to 25% faster at
// (2048, 32, 1), so n = 1 takes them too. matmul_tn takes them at every n
// once m >= kRL: at n >= 16 they measured level with or up to 2.5x faster
// than the packed column tiles it used before, in both builds. Below kRL
// rows a tile padded with zero lanes lost to the column tiles by 25% at
// (11, 512, 64) and 10x at (1, 512, 64), so m < kRL keeps them.
constexpr std::size_t kRowLaneMaxN = 16;

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

// -- micro-kernels -----------------------------------------------------------
// a points at A[i][0] (row stride lda), b at B[0][j] (row stride ldb), c at
// C[i][j] (row stride ldc). Accumulation runs the full k range in registers
// and stores once.

template <std::size_t MR, std::size_t NR>
inline void micro_nn(std::size_t k, const float* a, std::size_t lda,
                     const float* b, std::size_t ldb, float* c,
                     std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * ldb;
    for (std::size_t r = 0; r < MR; ++r) {
      const float ar = a[r * lda + kk];
      for (std::size_t cc = 0; cc < NR; ++cc) acc[r][cc] += ar * brow[cc];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t cc = 0; cc < NR; ++cc) c[r * ldc + cc] = acc[r][cc];
}

// Bottom-edge rows: dispatch the runtime row count to a compile-time MR so
// the column loop always vectorizes over a known NR.
template <std::size_t NR>
inline void micro_nn_rows(std::size_t mr, std::size_t k, const float* a,
                          std::size_t lda, const float* b, std::size_t ldb,
                          float* c, std::size_t ldc) {
  switch (mr) {
    case 4: micro_nn<4, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 3: micro_nn<3, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 2: micro_nn<2, NR>(k, a, lda, b, ldb, c, ldc); break;
    case 1: micro_nn<1, NR>(k, a, lda, b, ldb, c, ldc); break;
    default: break;
  }
}

// Right-edge columns past the last 16-wide sub-tile: one register
// accumulator per element, k ascending — same order as everything else.
inline void micro_nn_scalar(std::size_t mr, std::size_t nr, std::size_t k,
                            const float* a, std::size_t lda, const float* b,
                            std::size_t ldb, float* c, std::size_t ldc) {
  for (std::size_t r = 0; r < mr; ++r) {
    for (std::size_t cc = 0; cc < nr; ++cc) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += a[r * lda + kk] * b[kk * ldb + cc];
      c[r * ldc + cc] = acc;
    }
  }
}

// Row-lane tile: the SIMD lanes run over kRL consecutive output rows i and
// single B elements are broadcast, so a product whose n is too narrow for
// a column tile still vectorizes. `at` points at Aᵀ[0][i] (row stride lda;
// each of the k rows holds the tile's kRL row values contiguously), b at
// B[0][j] (row stride ldb), c at C[i][j] (row stride ldc). Each output
// element is still one k-ascending chain from 0.0f. Tile rows below r0
// are computed but not stored: a panel's edge tile is shifted back to end
// at the panel's last row, and its overlap rows belong to the tile before.
//
// The lanes are GCC/Clang vector types of the target's SIMD width (kVL
// floats, see above), kRL / kVL of them per column, not a float[kRL] loop:
// with NJ > 1 GCC's SLP pass vectorizes such a loop across the columns
// instead of the rows, shuffling every step, and a vector type wider than
// the target's registers is lowered through the stack. Vector arithmetic
// is lane-wise IEEE multiply then add, exactly the scalar code's.
using Lanes = float __attribute__((vector_size(kVL * sizeof(float))));
constexpr std::size_t kRV = kRL / kVL;

template <std::size_t NJ>
inline void micro_rowlane(std::size_t k, const float* at, std::size_t lda,
                          const float* b, std::size_t ldb, float* c,
                          std::size_t ldc, std::size_t r0) {
  Lanes acc[NJ][kRV] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = at + kk * lda;
    const float* brow = b + kk * ldb;
    for (std::size_t v = 0; v < kRV; ++v) {
      Lanes a{};
      std::memcpy(&a, arow + v * kVL, sizeof a);
      for (std::size_t cc = 0; cc < NJ; ++cc) acc[cc][v] += a * brow[cc];
    }
  }
  for (std::size_t r = r0; r < kRL; ++r)
    for (std::size_t cc = 0; cc < NJ; ++cc)
      c[r * ldc + cc] = acc[cc][r / kVL][r % kVL];
}

// One kRL-row tile across all n columns: kNJ-wide column groups, then the
// remainder dispatched to a compile-time width (cases >= kNJ never occur).
void rowlane_tile(std::size_t n, std::size_t k, const float* at,
                  std::size_t lda, const float* b, std::size_t ldb, float* c,
                  std::size_t ldc, std::size_t r0) {
  std::size_t j = 0;
  for (; j + kNJ <= n; j += kNJ)
    micro_rowlane<kNJ>(k, at, lda, b + j, ldb, c + j, ldc, r0);
  const float* bj = b + j;
  float* cj = c + j;
  switch (n - j) {
    case 7: micro_rowlane<7>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 6: micro_rowlane<6>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 5: micro_rowlane<5>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 4: micro_rowlane<4>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 3: micro_rowlane<3>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 2: micro_rowlane<2>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    case 1: micro_rowlane<1>(k, at, lda, bj, ldb, cj, ldc, r0); break;
    default: break;
  }
}

// Walk the row-lane tiles of the i-panel [i0, i1) of a product with at
// least kRL rows, so every panel ends at or after row kRL. `tile(s, r0)`
// computes rows [s, s + kRL) and stores tile rows [r0, kRL); the last tile
// is shifted back to end at i1.
template <typename TileFn>
void for_rowlane_tiles(std::size_t i0, std::size_t i1, const TileFn& tile) {
  for (std::size_t i = i0; i < i1; i += kRL) {
    const std::size_t s = std::min(i, i1 - kRL);
    tile(s, i - s);
  }
}

// One i-panel [i0, i1) of C = A·B through the column tiles, A row-major
// (stride k), B (k, n) row-major.
void gemm_nn_panel(std::size_t i0, std::size_t i1, std::size_t n,
                   std::size_t k, const float* pa, const float* pb,
                   float* pc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t j1 = std::min(n, j0 + kNC);
    for (std::size_t i = i0; i < i1; i += kMR) {
      const std::size_t mr = std::min(kMR, i1 - i);
      const float* arow = pa + i * k;
      float* crow = pc + i * n;
      std::size_t j = j0;
      for (; j + kNR <= j1; j += kNR)
        micro_nn_rows<kNR>(mr, k, arow, k, pb + j, n, crow + j, n);
      if (j + 32 <= j1) {
        micro_nn_rows<32>(mr, k, arow, k, pb + j, n, crow + j, n);
        j += 32;
      }
      if (j + 16 <= j1) {
        // One row at a time: a multi-row 16-wide accumulator tile spills
        // the portable register file (measured ~4x slower than 1×16).
        // Row grouping is irrelevant to exactness — each output element
        // still runs its own ascending k sweep.
        for (std::size_t r = 0; r < mr; ++r)
          micro_nn<1, 16>(k, arow + r * k, k, pb + j, n,
                          crow + r * n + j, n);
        j += 16;
      }
      if (j < j1)
        micro_nn_scalar(mr, j1 - j, k, arow, k, pb + j, n, crow + j, n);
    }
  }
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

// One i-panel [i0, i1) of C = A·B through row-lane tiles, A row-major
// (stride k), B (k, n) row-major. Each tile's kRL rows of A are first
// packed transposed into a (k, kRL) scratch — pure data movement.
void rowlane_packed_panel(std::size_t i0, std::size_t i1, std::size_t n,
                          std::size_t k, const float* pa, const float* pb,
                          float* pc) {
  auto pack = ScratchPool::local().take({k, kRL});
  float* pp = pack->data().data();
  for_rowlane_tiles(i0, i1, [&](std::size_t s, std::size_t r0) {
    for (std::size_t r = 0; r < kRL; ++r) {
      const float* arow = pa + (s + r) * k;
      for (std::size_t kk = 0; kk < k; ++kk) pp[kk * kRL + r] = arow[kk];
    }
    rowlane_tile(n, k, pp, kRL, pb, n, pc + s * n, n, r0);
  });
}

// C = A·B for A row-major (stride k) and B (k, n) row-major: row-lane
// tiles for narrow outputs, column tiles otherwise. Shared by nn and nt
// (packed Bᵀ).
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* pa,
             const float* pb, float* pc, std::uint64_t flops) {
  const bool rowlane = m >= kRL && n < kRowLaneMaxN;
  dispatch_row_panels(m, flops, [&](std::size_t i0, std::size_t i1) {
    if (rowlane)
      rowlane_packed_panel(i0, i1, n, k, pa, pb, pc);
    else
      gemm_nn_panel(i0, i1, n, k, pa, pb, pc);
  });
}

void check_not_aliased(const Tensor& c, const Tensor& a, const Tensor& b,
                       const char* what) {
  STELLARIS_CHECK_MSG(&c != &a && &c != &b,
                      what << ": output must not alias an input");
}

}  // namespace

// -- matmul (nn) -------------------------------------------------------------

void matmul_into(Tensor& c, const Tensor& a, const Tensor& b) {
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
  gemm_nn(m, n, k, pa, pb, pc, flops);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(c, a, b);
  return c;
}

// -- matmul_tn ---------------------------------------------------------------

void matmul_tn_into(Tensor& c, const Tensor& a, const Tensor& b) {
  STELLARIS_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                      "matmul_tn needs 2-D operands");
  check_not_aliased(c, a, b, "matmul_tn_into");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  STELLARIS_CHECK_MSG(b.dim(0) == k, "matmul_tn inner-dim mismatch");
  c.ensure_shape({m, n});
  const std::uint64_t flops = 2ull * m * n * k;
  gemm_calls().add(1);
  gemm_flop_counter().add(flops);
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();
  if (m < kRL) {
    // Too few rows for a tile: pack Aᵀ into a contiguous (m, k) scratch —
    // pure data movement — and run the column tiles on it (m < kMC, so
    // one panel).
    auto pack = ScratchPool::local().take({m, k});
    float* pp = pack->data().data();
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t i = 0; i < m; ++i) pp[i * k + kk] = pa[kk * m + i];
    gemm_nn_panel(0, m, n, k, pp, pb, pc);
    return;
  }
  // Aᵀ is A's own layout: the tiles read it in place.
  dispatch_row_panels(m, flops, [&](std::size_t i0, std::size_t i1) {
    for_rowlane_tiles(i0, i1, [&](std::size_t s, std::size_t r0) {
      rowlane_tile(n, k, pa + s, m, pb, n, pc + s * n, n, r0);
    });
  });
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_tn_into(c, a, b);
  return c;
}

// -- matmul_nt ---------------------------------------------------------------

void matmul_nt_into(Tensor& c, const Tensor& a, const Tensor& b) {
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
  gemm_nn(m, n, k, pa, pp, pc, flops);
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
