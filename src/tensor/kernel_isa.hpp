// Which ISA tier runs the tensor kernels.
//
// The pointer-and-size kernel loops are built once per tier (kernel_tier.cpp,
// kernel_table.hpp): baseline x86-64, x86-64-v3 (AVX2, FMA, BMI) and
// x86-64-v4 (AVX-512 F/BW/CD/DQ/VL) on x86-64, one baseline tier on other
// targets. At the first kernel call the highest tier whose whole feature
// level the CPU and the OS (saved vector state) support is picked, once, by
// CPUID. Every tier gives the same bits, so the choice changes host time
// only; there is no switch to override it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "tensor/kernel_table.hpp"

namespace stellaris {

class Tensor;

namespace ops {

/// Name of the tier running the kernels in this process: "x86-64",
/// "x86-64-v3" or "x86-64-v4" on x86-64, "baseline" elsewhere. A query
/// for tests and bench headers.
const char* kernel_isa();

namespace detail {

/// CPU features the tiers need, one bit each. kCpuOsYmm / kCpuOsZmm mean
/// the OS saves the AVX / AVX-512 register state (OSXSAVE and XCR0).
enum CpuFeature : std::uint32_t {
  kCpuSse3 = 1u << 0,
  kCpuSsse3 = 1u << 1,
  kCpuSse41 = 1u << 2,
  kCpuSse42 = 1u << 3,
  kCpuPopcnt = 1u << 4,
  kCpuCx16 = 1u << 5,
  kCpuLahfSahf = 1u << 6,
  kCpuAvx = 1u << 7,
  kCpuAvx2 = 1u << 8,
  kCpuBmi1 = 1u << 9,
  kCpuBmi2 = 1u << 10,
  kCpuF16c = 1u << 11,
  kCpuFma = 1u << 12,
  kCpuLzcnt = 1u << 13,
  kCpuMovbe = 1u << 14,
  kCpuOsYmm = 1u << 15,
  kCpuAvx512f = 1u << 16,
  kCpuAvx512bw = 1u << 17,
  kCpuAvx512cd = 1u << 18,
  kCpuAvx512dq = 1u << 19,
  kCpuAvx512vl = 1u << 20,
  kCpuOsZmm = 1u << 21,
};

/// The x86-64 psABI feature levels, each including the one below.
constexpr std::uint32_t kLevelV2 = kCpuSse3 | kCpuSsse3 | kCpuSse41 |
                                   kCpuSse42 | kCpuPopcnt | kCpuCx16 |
                                   kCpuLahfSahf;
constexpr std::uint32_t kLevelV3 = kLevelV2 | kCpuAvx | kCpuAvx2 | kCpuBmi1 |
                                   kCpuBmi2 | kCpuF16c | kCpuFma | kCpuLzcnt |
                                   kCpuMovbe | kCpuOsYmm;
constexpr std::uint32_t kLevelV4 = kLevelV3 | kCpuAvx512f | kCpuAvx512bw |
                                   kCpuAvx512cd | kCpuAvx512dq |
                                   kCpuAvx512vl | kCpuOsZmm;

struct KernelTier {
  const char* name;
  std::uint32_t required;  // CpuFeature bits the tier's code may use
  const KernelTable& (*kernels)();
};

/// The tiers this build compiled, lowest first; the first requires nothing.
std::span<const KernelTier> kernel_tiers();

/// This CPU's CpuFeature bits (0 off x86-64).
std::uint32_t host_cpu_features();

/// Index of the highest tier in `tiers` whose required bits are all in
/// `features`; 0 when none is. Pure, so tests can drive it with fake masks.
std::size_t select_kernel_tier(std::span<const KernelTier> tiers,
                               std::uint32_t features);

/// The tiers this host can run, lowest first: kernel_tiers() up to and
/// including the highest one it supports (each level contains the one
/// below). Decided at first use.
std::span<const KernelTier> host_kernel_tiers();

/// The tier running this process's kernels (host_kernel_tiers().back())
/// and its table.
const KernelTier& active_kernel_tier();
const KernelTable& active_kernels();

// The Tensor-level kernels with an explicit tier; the ops:: functions of
// the same names call these with active_kernels(). Tests use them to run
// every tier the host supports.
void matmul_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                 const Tensor& b);
/// With `carry`, C must already be (m, n) and each element's chain
/// continues from its value (ops::matmul_tn_carry_into).
void matmul_tn_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                    const Tensor& b, bool carry = false);
void matmul_nt_into(const KernelTable& kt, Tensor& c, const Tensor& a,
                    const Tensor& b);
void add_bias_rows(const KernelTable& kt, Tensor& x, const Tensor& bias);
void add_bias_tanh_rows(const KernelTable& kt, Tensor& x, const Tensor& bias);
/// With `carry`, out must already be (n) and each column sum continues
/// from its value (ops::sum_rows_carry_into).
void sum_rows_into(const KernelTable& kt, Tensor& out, const Tensor& x,
                   bool carry = false);
void tanh_forward_into(const KernelTable& kt, Tensor& y, const Tensor& x);
void tanh_backward_into(const KernelTable& kt, Tensor& dx, const Tensor& y,
                        const Tensor& dy);
void relu_forward_into(const KernelTable& kt, Tensor& y, const Tensor& x);
void relu_backward_into(const KernelTable& kt, Tensor& dx, const Tensor& x,
                        const Tensor& dy);

}  // namespace detail
}  // namespace ops
}  // namespace stellaris
