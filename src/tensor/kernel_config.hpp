// Threading knobs for the blocked tensor kernels.
//
// The GEMMs partition work over contiguous row panels of the output; each
// output element is always accumulated by exactly one task in the same
// k-ascending order, so results are bit-identical at every thread count.
// Threading therefore only changes wall-clock, never values — the
// deterministic virtual-time sim path is unaffected by turning it on.
//
// Defaults: serial. The STELLARIS_KERNEL_THREADS environment variable
// (read once, at first query) can preset a count — an integer in
// [1, 4·hardware threads], or "auto" for hardware_concurrency; anything
// else is warned about and means serial. set_kernel_threads() overrides at
// runtime and is intended for startup/bench configuration, not for racing
// against in-flight kernels.
#pragma once

#include <cstddef>
#include <cstdint>

namespace stellaris {

class ThreadPool;

namespace ops {

/// The kernel thread count a STELLARIS_KERNEL_THREADS value asks for on a
/// host with `hardware` threads (0 = unknown, taken as 1): 1 when unset or
/// empty, `hardware` for "auto", n for a whole-string decimal n in
/// [1, 4·hardware]. Anything else ("4x", "abc", "0", "-2", " 4", a huge
/// count) logs one warning and returns 1.
std::size_t parse_kernel_threads(const char* value, unsigned hardware);

/// Worker count the kernels may use; 0 and 1 both mean serial.
std::size_t kernel_threads();
void set_kernel_threads(std::size_t n);

/// Clamp the kernel thread count so `driver_threads` concurrent invocation
/// bodies (sim/driver.hpp) each running `kernel_threads()`-wide kernels do
/// not oversubscribe the machine: when driver_threads × kernel_threads
/// exceeds the hardware thread count, kernel_threads is reduced to
/// max(1, hardware / driver_threads), with a one-time warning through the
/// leveled logger. `hardware` = 0 queries std::thread::hardware_concurrency
/// (a nonzero value is injectable for tests). Returns the effective kernel
/// thread count. Kernel results are bit-identical at any thread count, so
/// the clamp changes wall-clock only, never values.
std::size_t apply_driver_thread_budget(std::size_t driver_threads,
                                       std::size_t hardware = 0);

/// Minimum GEMM cost (2·m·n·k FLOPs) before a kernel goes parallel — tiny
/// products are cheaper than the fork/join handshake.
std::uint64_t kernel_parallel_min_flops();
void set_kernel_parallel_min_flops(std::uint64_t flops);

namespace detail {
/// The pool shared by all kernels, (re)created to match `threads` on
/// demand. Callers must hold the returned reference only for one kernel
/// dispatch.
ThreadPool& kernel_pool(std::size_t threads);
}  // namespace detail

}  // namespace ops
}  // namespace stellaris
