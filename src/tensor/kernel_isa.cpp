#include "tensor/kernel_isa.hpp"

#if STELLARIS_KERNEL_X86_TIERS
#include <cpuid.h>
#endif

namespace stellaris::ops {
namespace detail {
namespace {

constexpr KernelTier kTiers[] = {
#if STELLARIS_KERNEL_X86_TIERS
    {"x86-64", 0, isa_baseline::kernels},
    {"x86-64-v3", kLevelV3, isa_x86_64_v3::kernels},
    {"x86-64-v4", kLevelV4, isa_x86_64_v4::kernels},
#else
    {"baseline", 0, isa_baseline::kernels},
#endif
};

}  // namespace

// analyze:test-only-ok a test checks the build's tier list through it
std::span<const KernelTier> kernel_tiers() { return kTiers; }

std::uint32_t host_cpu_features() {
  std::uint32_t f = 0;
#if STELLARIS_KERNEL_X86_TIERS
  const auto set = [&f](unsigned reg, unsigned bit, std::uint32_t feature) {
    if (((reg >> bit) & 1u) != 0) f |= feature;
  };
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return 0;
  set(c, 0, kCpuSse3);
  set(c, 9, kCpuSsse3);
  set(c, 12, kCpuFma);
  set(c, 13, kCpuCx16);
  set(c, 19, kCpuSse41);
  set(c, 20, kCpuSse42);
  set(c, 22, kCpuMovbe);
  set(c, 23, kCpuPopcnt);
  set(c, 28, kCpuAvx);
  set(c, 29, kCpuF16c);
  const bool osxsave = ((c >> 27) & 1u) != 0;
  if (__get_cpuid_max(0, nullptr) >= 7) {
    __cpuid_count(7, 0, a, b, c, d);
    set(b, 3, kCpuBmi1);
    set(b, 5, kCpuAvx2);
    set(b, 8, kCpuBmi2);
    set(b, 16, kCpuAvx512f);
    set(b, 17, kCpuAvx512dq);
    set(b, 28, kCpuAvx512cd);
    set(b, 30, kCpuAvx512bw);
    set(b, 31, kCpuAvx512vl);
  }
  if (__get_cpuid(0x80000001u, &a, &b, &c, &d) != 0) {
    set(c, 0, kCpuLahfSahf);
    set(c, 5, kCpuLzcnt);
  }
  if (osxsave) {
    // XCR0: bits 1-2 are the XMM and YMM state, bits 5-7 the opmask and
    // the two halves of the ZMM state. The CPU may have AVX-512 while the
    // OS does not save its registers; then its instructions must not run.
    unsigned lo = 0, hi = 0;
    __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    if ((lo & 0x06u) == 0x06u) f |= kCpuOsYmm;
    if ((lo & 0xe6u) == 0xe6u) f |= kCpuOsZmm;
  }
#endif
  return f;
}

std::size_t select_kernel_tier(std::span<const KernelTier> tiers,
                               std::uint32_t features) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < tiers.size(); ++i)
    if ((tiers[i].required & ~features) == 0) best = i;
  return best;
}

std::span<const KernelTier> host_kernel_tiers() {
  static const std::size_t count =
      select_kernel_tier(kTiers, host_cpu_features()) + 1;
  return std::span<const KernelTier>(kTiers).first(count);
}

const KernelTier& active_kernel_tier() { return host_kernel_tiers().back(); }

const KernelTable& active_kernels() {
  static const KernelTable& table = active_kernel_tier().kernels();
  return table;
}

}  // namespace detail

const char* kernel_isa() { return detail::active_kernel_tier().name; }

}  // namespace stellaris::ops
