// The pointer-and-size kernel loops of the tensor library, compiled once
// per ISA tier (see kernel_table.hpp and DESIGN.md §9 "ISA tiers").
//
// src/tensor/CMakeLists.txt builds this file as one object per tier, with
// that tier's -march, -ffp-contract=off and -fno-trapping-math, and
// STELLARIS_KERNEL_TIER naming the tier's namespace. The tile constants
// below follow the tier's SIMD width through the predefined __AVX512F__ /
// __AVX__ macros. Everything here has internal linkage except the tier's
// kernels() entry point, and nothing from a library header is called: the
// Tensor checks, metrics counters, scratch leases and thread-pool dispatch
// stay in the baseline gemm.cpp and elementwise.cpp.
//
// GEMM scheme (gemm.cpp's header has the whole picture):
//   * Column tiles: the output C is walked by an MR×NR register
//     micro-kernel that keeps a block of C in accumulator registers for the
//     entire k sweep — one store per output element, and every B-row load
//     is shared by MR output rows. Columns are split into kNC panels.
//   * Each output element accumulates its k products in ascending order
//     starting from 0.0f, exactly the order of the naive reference kernel,
//     so every tier is bit-identical to ops::reference. The column tiles
//     and matmul/matmul_nt's row lanes run the whole k range in one sweep.
//     matmul_tn's row lanes block k (kKC rows, rowlane_tn_panel): each
//     block starts from the float the block before stored in C, so an
//     element is still one chain, carried through C.
//   * Row-lane tiles (micro_rowlane) run the SIMD lanes over kRL output
//     rows instead and broadcast single B elements, for outputs narrower
//     than one 16-column sub-tile. They read the left operand as Aᵀ (k ×
//     rows, contiguous in i): matmul_tn's A in place, or each kRL-row block
//     of A packed transposed in register-transposed blocks (pure data
//     movement).
//
// -ffp-contract=off keeps every multiply-add two rounded operations under
// FMA-capable -march; -fno-trapping-math lets GCC if-convert tanh's clamps
// and select and vectorize the loop (it changes no value).
#include <cstring>
#include <utility>

#include "tensor/kernel_table.hpp"
#include "tensor/tanh_rational.hpp"

#ifndef STELLARIS_KERNEL_TIER
#error "build kernel_tier.cpp through src/tensor/CMakeLists.txt, which names the tier"
#endif

namespace stellaris::ops::detail::STELLARIS_KERNEL_TIER {
namespace {

// Register tile and cache panels. 4×48 accumulators measured fastest for
// the AVX-512 build (three 16-lane accumulator columns per row keep both
// FMA ports busy) while staying ahead of the reference ikj kernel in the
// baseline build. Column edges are handled by compile-time sub-tiles (32,
// then 16, then a scalar tail) because a runtime-bound tile defeats the
// vectorizer.
constexpr std::size_t kMR = 4;
constexpr std::size_t kNR = 48;
constexpr std::size_t kNC = 240;  // multiple of kNR: edge tiles only at the true edge
// matmul_tn's k block (rowlane_tn_panel): kKC rows of Aᵀ and B per sweep
// of a panel's row-lane tiles.
constexpr std::size_t kKC = kTnKBlockRows;

// Row-lane tile (micro_rowlane): kRL output rows held as kRL / kVL vectors
// of the tier's SIMD width, times kNJ columns. kNJ is the widest column
// group whose accumulators stay in registers: 4 × (4 SSE registers) in the
// baseline tier, 4 × (2 ymm) under AVX2, 8 zmm registers under AVX-512.
// Under AVX-512 8 beat 4 by 13–33% on (75, 6144, 8) and wide matmul_tn; in
// the baseline tier 8 lost 6–36% (4-vCPU Xeon VM, GCC 12, best of 5
// interleaved runs). In the AVX2 tier 8 (16 ymm accumulators, the whole
// register file) did not win: over 7 interleaved `micro_substrates --tiers`
// runs on the same VM, median (best) GFLOP/s for kNJ = 4 vs 8 were 29.9
// (34.0) vs 30.5 (32.3) on (75, 6144, 8) matmul_tn and 41.8 (47.7) vs 41.0
// (43.1) on (32, 512, 32); the n = 3 products run the same 3-wide tail
// either way (11.2 vs 11.8 on (512, 32, 3) matmul, 45.5 vs 42.0 on
// (32, 512, 3) matmul_tn: noise). So AVX2 keeps 4.
constexpr std::size_t kRL = kRowLaneRows;
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

std::size_t min_size(std::size_t a, std::size_t b) { return b < a ? b : a; }

// -- column-tile micro-kernels ------------------------------------------------
// a points at A[i][0] (row stride lda), b at B[0][j] (row stride ldb), c at
// C[i][j] (row stride ldc). Accumulation runs the full k range in registers
// and stores once.
//
// The accumulators are explicit vectors of the tier's width: MR rows ×
// NR / kVL vectors. Each output element is still its own k-ascending chain
// from 0.0f. The AVX2 and AVX-512 tiers run the 16-wide sub-tile four rows
// at a time, four independent add chains per B-row load where one row at a
// time is latency-bound; the baseline tier keeps it at one row: four rows
// would need 16 SSE accumulators, its whole register file.
using Lanes = float __attribute__((vector_size(kVL * sizeof(float))));

// The loads and stores copy each accumulator by value in fully unrolled
// loops, which keeps the array in registers: a rolled memcpy from
// &acc[r][v] (or a float array, or a lane read at a runtime index) makes
// it addressable, and GCC then zeroes it in memory with `rep stos` on
// every call and spills every accumulator to store it (~25% of a 4×16×16
// call).
inline Lanes load_lanes(const float* src) {
  Lanes v;
  std::memcpy(&v, src, sizeof v);
  return v;
}

inline void store_lanes(float* dst, Lanes v) {
  std::memcpy(dst, &v, sizeof v);
}

// Not inlined: inside gemm_nn_panel the 4×16 tile ran ~5% slower around
// the same inner loop (AVX-512 tier, (49152, 75, 16)).
template <std::size_t MR, std::size_t NR>
__attribute__((noinline)) void micro_nn(std::size_t k, const float* a,
                                        std::size_t lda, const float* b,
                                        std::size_t ldb, float* c,
                                        std::size_t ldc) {
  static_assert(NR % kVL == 0, "a column tile is whole vectors");
  constexpr std::size_t kV = NR / kVL;
  Lanes acc[MR][kV] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    Lanes bv[kV];
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kV; ++v)
      bv[v] = load_lanes(b + kk * ldb + v * kVL);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      const float ar = a[r * lda + kk];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < kV; ++v) acc[r][v] += ar * bv[v];
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < MR; ++r)
#pragma GCC unroll 16
    for (std::size_t v = 0; v < kV; ++v)
      store_lanes(c + r * ldc + v * kVL, acc[r][v]);
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

// -- row-lane micro-kernel -----------------------------------------------------
// The SIMD lanes run over kRL consecutive output rows i and single B
// elements are broadcast, so a product whose n is too narrow for a column
// tile still vectorizes. `at` points at Aᵀ[0][i] (row stride lda; each of
// the k rows holds the tile's kRL row values contiguously), b at B[0][j]
// (row stride ldb), c at C[i][j] (row stride ldc). Only tile rows [r0, r1)
// are loaded and stored: a panel's edge tile is shifted back to end at the
// panel's last row, and its rows below r0 belong to the tile before; a
// product shorter than a tile runs one tile whose lanes from r1 on are
// zero padding.
//
// Each output element is one k-ascending chain. Without Carry it starts
// from 0.0f; with Carry it starts from the float already in C, the end of
// the same chain over the k rows before `at` (matmul_tn's k blocks, see
// rowlane_tn_panel), so the chain and its bits are those of one sweep.
//
// The lanes are GCC/Clang vector types of the tier's SIMD width (kVL
// floats, see above), kRL / kVL of them per column, not a float[kRL] loop:
// with NJ > 1 GCC's SLP pass vectorizes such a loop across the columns
// instead of the rows, shuffling every step, and a vector type wider than
// the target's registers is lowered through the stack. Vector arithmetic
// is lane-wise IEEE multiply then add, exactly the scalar code's. The
// lanes move to and from C through a (NJ × kRL) float buffer: by value in
// fully unrolled loops, which keep the accumulators in registers (see
// load_lanes), then row by row over the live rows. Moving a whole tile's
// lanes straight to C at constant lane indices measured level with that
// (0.97–1.03×), so every tile takes the one path.
constexpr std::size_t kRV = kRL / kVL;

template <std::size_t NJ, bool Carry>
inline void micro_rowlane(std::size_t k, const float* at, std::size_t lda,
                          const float* b, std::size_t ldb, float* c,
                          std::size_t ldc, std::size_t r0, std::size_t r1) {
  Lanes acc[NJ][kRV] = {};
  if constexpr (Carry) {
    float tile[NJ][kRL];
    for (std::size_t r = 0; r < kRL; ++r) {
      const bool live = r >= r0 && r < r1;
      for (std::size_t cc = 0; cc < NJ; ++cc)
        tile[cc][r] = live ? c[r * ldc + cc] : 0.0f;
    }
#pragma GCC unroll 8
    for (std::size_t cc = 0; cc < NJ; ++cc)
#pragma GCC unroll 4
      for (std::size_t v = 0; v < kRV; ++v)
        acc[cc][v] = load_lanes(&tile[cc][v * kVL]);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = at + kk * lda;
    const float* brow = b + kk * ldb;
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kRV; ++v) {
      const Lanes a = load_lanes(arow + v * kVL);
#pragma GCC unroll 8
      for (std::size_t cc = 0; cc < NJ; ++cc) acc[cc][v] += a * brow[cc];
    }
  }
  float tile[NJ][kRL];
#pragma GCC unroll 8
  for (std::size_t cc = 0; cc < NJ; ++cc)
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kRV; ++v)
      store_lanes(&tile[cc][v * kVL], acc[cc][v]);
  for (std::size_t r = r0; r < r1; ++r)
    for (std::size_t cc = 0; cc < NJ; ++cc) c[r * ldc + cc] = tile[cc][r];
}

// -- row-lane Aᵀ pack ---------------------------------------------------------
// matmul and matmul_nt feed the row lanes A row-major, so each tile's kRL
// rows are first packed transposed into a (k × kRL) scratch. The pack
// moves kTW × kTW blocks: kTW row segments loaded as vectors, transposed
// in registers by log2(kTW) rounds of two-source zips (after the rounds,
// vector c holds column c), and stored as kTW pack-row segments; the last
// k mod kTW columns go one element at a time. Pure data movement, so every
// tier packs the same bits. Under AVX-512 a block is the whole 16 × 16
// tile face. The baseline and AVX2 tiers use 4 × 4 blocks: AVX2's 8-lane
// zips cross the 128-bit halves, and on (256, 75) they measured slower
// than the per-element pack (4-vCPU Xeon VM, GCC 12).
#if defined(__AVX512F__)
constexpr std::size_t kTW = 16;
#else
constexpr std::size_t kTW = 4;
#endif
static_assert(kRL % kTW == 0, "transpose blocks must tile the lanes");

// One W-float row of a W × W block.
template <std::size_t W>
struct Block {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};
using BlockRow = Block<kTW>::type;

// zip_lo(a, b) = a0 b0 a1 b1 ... from the lower halves; zip_hi the same
// from the upper halves.
template <std::size_t W, std::size_t... I>
inline typename Block<W>::type zip_lo(typename Block<W>::type a,
                                      typename Block<W>::type b,
                                      std::index_sequence<I...>) {
  return __builtin_shufflevector(a, b, ((I % 2) * W + I / 2)...);
}
template <std::size_t W, std::size_t... I>
inline typename Block<W>::type zip_hi(typename Block<W>::type a,
                                      typename Block<W>::type b,
                                      std::index_sequence<I...>) {
  return __builtin_shufflevector(a, b, ((I % 2) * W + W / 2 + I / 2)...);
}

template <std::size_t W>
inline void transpose_block(typename Block<W>::type (&v)[W]) {
  constexpr auto lanes = std::make_index_sequence<W>{};
  for (std::size_t round = 1; round < W; round *= 2) {
    typename Block<W>::type t[W];
    for (std::size_t i = 0; i < W / 2; ++i) {
      t[2 * i] = zip_lo<W>(v[i], v[i + W / 2], lanes);
      t[2 * i + 1] = zip_hi<W>(v[i], v[i + W / 2], lanes);
    }
    for (std::size_t i = 0; i < W; ++i) v[i] = t[i];
  }
}

// pack (k × kRL) = the transpose of the kRL rows of A at `a` (stride k).
// A Padded pack reads only the first `rows` rows and packs zero rows in
// place of the missing ones; an unpadded pack reads all kRL.
template <bool Padded>
void pack_rowlane_tile(const float* a, std::size_t rows, std::size_t k,
                       float* pack) {
  const auto live = [&](std::size_t r) { return !Padded || r < rows; };
  std::size_t kk = 0;
  for (; kk + kTW <= k; kk += kTW) {
    for (std::size_t r0 = 0; r0 < kRL; r0 += kTW) {
      BlockRow v[kTW];
      for (std::size_t r = 0; r < kTW; ++r) {
        if (live(r0 + r))
          std::memcpy(&v[r], a + (r0 + r) * k + kk, sizeof v[r]);
        else
          v[r] = BlockRow{};
      }
      transpose_block<kTW>(v);
      for (std::size_t c = 0; c < kTW; ++c)
        std::memcpy(pack + (kk + c) * kRL + r0, &v[c], sizeof v[c]);
    }
  }
  for (std::size_t r = 0; r < kRL; ++r)
    for (std::size_t c = kk; c < k; ++c)
      pack[c * kRL + r] = live(r) ? a[r * k + c] : 0.0f;
}

// One kRL-row tile across all n columns: kNJ-wide column groups, then the
// remainder dispatched to a compile-time width (cases >= kNJ never occur).
template <bool Carry>
void rowlane_tile(std::size_t n, std::size_t k, const float* at,
                  std::size_t lda, const float* b, std::size_t ldb, float* c,
                  std::size_t ldc, std::size_t r0, std::size_t r1) {
  std::size_t j = 0;
  for (; j + kNJ <= n; j += kNJ)
    micro_rowlane<kNJ, Carry>(k, at, lda, b + j, ldb, c + j, ldc, r0, r1);
  const float* bj = b + j;
  float* cj = c + j;
  switch (n - j) {
    case 7: micro_rowlane<7, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 6: micro_rowlane<6, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 5: micro_rowlane<5, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 4: micro_rowlane<4, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 3: micro_rowlane<3, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 2: micro_rowlane<2, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    case 1: micro_rowlane<1, Carry>(k, at, lda, bj, ldb, cj, ldc, r0, r1);
      break;
    default: break;
  }
}

// Walk the row-lane tiles of the i-panel [i0, i1), i1 >= kRL. `tile(s,
// r0)` computes rows [s, s + kRL) and stores tile rows [r0, kRL); the last
// tile is shifted back to end at i1.
template <typename TileFn>
void for_rowlane_tiles(std::size_t i0, std::size_t i1, const TileFn& tile) {
  for (std::size_t i = i0; i < i1; i += kRL) {
    const std::size_t s = min_size(i, i1 - kRL);
    tile(s, i - s);
  }
}

// -- KernelTable entries ---------------------------------------------------------

void gemm_nn_panel(std::size_t i0, std::size_t i1, std::size_t n,
                   std::size_t k, const float* pa, const float* pb,
                   float* pc) {
  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t j1 = min_size(n, j0 + kNC);
    for (std::size_t i = i0; i < i1; i += kMR) {
      const std::size_t mr = min_size(kMR, i1 - i);
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
        // Row grouping is irrelevant to exactness — each output element
        // still runs its own ascending k sweep.
        std::size_t r = 0;
#if defined(__AVX__)
        if (mr == kMR) {
          micro_nn<kMR, 16>(k, arow, k, pb + j, n, crow + j, n);
          r = kMR;
        }
#endif
        // One row at a time: a multi-row 16-wide accumulator tile spills
        // the baseline register file (measured ~4x slower than 1×16).
        for (; r < mr; ++r)
          micro_nn<1, 16>(k, arow + r * k, k, pb + j, n,
                          crow + r * n + j, n);
        j += 16;
      }
      if (j < j1)
        micro_nn_scalar(mr, j1 - j, k, arow, k, pb + j, n, crow + j, n);
    }
  }
}

void rowlane_nn_panel(std::size_t i0, std::size_t i1, std::size_t n,
                      std::size_t k, const float* pa, const float* pb,
                      float* pc, float* pack) {
  if (i1 - i0 < kRL) {
    // A panel shorter than a tile (a small product, or a threaded
    // product's last panel): one tile, its missing rows packed as zeros
    // and left unstored.
    const std::size_t rows = i1 - i0;
    pack_rowlane_tile<true>(pa + i0 * k, rows, k, pack);
    rowlane_tile<false>(n, k, pack, kRL, pb, n, pc + i0 * n, n, 0, rows);
    return;
  }
  for_rowlane_tiles(i0, i1, [&](std::size_t s, std::size_t r0) {
    pack_rowlane_tile<false>(pa + s * k, kRL, k, pack);
    rowlane_tile<false>(n, k, pack, kRL, pb, n, pc + s * n, n, r0, kRL);
  });
}

// matmul_tn sweeps k in blocks of kKC rows of A and B, and every tile of
// the panel runs block b before any tile moves to block b + 1, so the
// panel's tiles share each block's B rows and the A cache lines they
// straddle from L2. The first block starts every chain from 0.0f (and
// zeroes C when k = 0), or with `carry` from the float already in C (a
// caller continuing the chain over further rows); later blocks carry it
// on from the float stored in C, so each element is still one k-ascending
// chain. In one sweep, k = 49 152 (a 768-frame conv1 dW) would stream
// 14.7 MB of A and 1.5 MB of B from DRAM once per tile.
void rowlane_tn_panel(std::size_t i0, std::size_t i1, std::size_t m,
                      std::size_t n, std::size_t k, const float* pa,
                      const float* pb, float* pc, bool carry) {
  const std::size_t kc0 = min_size(k, kKC);
  for_rowlane_tiles(i0, i1, [&](std::size_t s, std::size_t r0) {
    if (carry)
      rowlane_tile<true>(n, kc0, pa + s, m, pb, n, pc + s * n, n, r0, kRL);
    else
      rowlane_tile<false>(n, kc0, pa + s, m, pb, n, pc + s * n, n, r0, kRL);
  });
  for (std::size_t k0 = kc0; k0 < k; k0 += kKC) {
    const std::size_t kc = min_size(kKC, k - k0);
    const float* a0 = pa + k0 * m;
    const float* b0 = pb + k0 * n;
    for_rowlane_tiles(i0, i1, [&](std::size_t s, std::size_t r0) {
      rowlane_tile<true>(n, kc, a0 + s, m, b0, n, pc + s * n, n, r0, kRL);
    });
  }
}

// The first `cols` columns of each of `count` row-major (rows × ld)
// matrices, back to back, to their (cols × rows) transpose: the
// convolution's reorder between (N·oh·ow, oc) and channel-major
// (N, oc·oh·ow); ld > cols reads one torso's columns of the joint
// first-conv product. 4 × 4 register-transposed blocks in
// every tier, since the channel counts (8, 16) and conv1's 64 positions
// are multiples of 4 but not of 16; the last rows mod 4 rows (conv2's
// 9th position) and cols mod 4 columns go one element at a time. Pure
// data movement.
constexpr std::size_t kXW = 4;
using XRow = Block<kXW>::type;

void transpose_each(const float* src, std::size_t count, std::size_t rows,
                    std::size_t cols, std::size_t ld, float* dst) {
  for (std::size_t m = 0; m < count; ++m) {
    const float* s = src + m * rows * ld;
    float* d = dst + m * rows * cols;
    std::size_t i = 0;
    for (; i + kXW <= rows; i += kXW) {
      std::size_t j = 0;
      for (; j + kXW <= cols; j += kXW) {
        XRow v[kXW];
        for (std::size_t r = 0; r < kXW; ++r)
          std::memcpy(&v[r], s + (i + r) * ld + j, sizeof v[r]);
        transpose_block<kXW>(v);
        for (std::size_t c = 0; c < kXW; ++c)
          std::memcpy(d + (j + c) * rows + i, &v[c], sizeof v[c]);
      }
      for (; j < cols; ++j)
        for (std::size_t r = 0; r < kXW; ++r)
          d[j * rows + i + r] = s[(i + r) * ld + j];
    }
    for (; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) d[j * rows + i] = s[i * ld + j];
  }
}

void tanh_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_rational(x[i]);
}

void tanh_backward(const float* y, const float* dy, float* dx,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
}

// std::max(x, 0.0f)'s exact semantics: x unless x < 0, so NaN and -0 pass
// through.
void relu_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

void relu_backward(const float* x, const float* dy, float* dx,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dx[i] = x[i] <= 0.0f ? 0.0f : dy[i];
}

void add_bias_rows(float* x, const float* bias, std::size_t m,
                   std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) x[i * n + j] += bias[j];
}

void add_bias_tanh_rows(float* x, const float* bias, std::size_t m,
                        std::size_t n) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      x[i * n + j] = tanh_rational(x[i * n + j] + bias[j]);
}

void sum_rows(const float* x, float* out, std::size_t m, std::size_t n,
              bool carry) {
  if (!carry)
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0f;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out[j] += x[i * n + j];
}

}  // namespace

const KernelTable& kernels() {
  static constexpr KernelTable kTable{
      gemm_nn_panel, rowlane_nn_panel,   rowlane_tn_panel, transpose_each,
      tanh_forward,  tanh_backward,      relu_forward,     relu_backward,
      add_bias_rows, add_bias_tanh_rows, sum_rows,
  };
  return kTable;
}

}  // namespace stellaris::ops::detail::STELLARIS_KERNEL_TIER
