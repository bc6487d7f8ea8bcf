#include "tensor/kernel_config.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>

#include "util/annotated_mutex.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace stellaris::ops {
namespace {

std::size_t threads_from_env() {
  const unsigned hw = std::thread::hardware_concurrency();
  return parse_kernel_threads(std::getenv("STELLARIS_KERNEL_THREADS"), hw);
}

std::atomic<std::size_t>& thread_count() {
  static std::atomic<std::size_t> n{threads_from_env()};
  return n;
}

std::atomic<std::uint64_t>& min_flops() {
  // 2·80³ ≈ 1 MFLOP: roughly where a panel outweighs the fork/join cost.
  static std::atomic<std::uint64_t> f{1'000'000};
  return f;
}

}  // namespace

std::size_t parse_kernel_threads(const char* value, unsigned hardware) {
  if (value == nullptr || *value == '\0') return 1;
  const std::size_t hw = hardware == 0 ? 1 : hardware;
  const std::string_view s(value);
  if (s == "auto") return hw;
  // A whole-string decimal in [1, 4·hardware]: no sign, space or suffix,
  // and no count a ThreadPool could not sensibly start.
  const std::size_t max = 4 * hw;
  std::size_t n = 0;
  bool ok = true;
  for (const char ch : s) {
    if (ch < '0' || ch > '9' || n > max) {  // n > max also stops overflow
      ok = false;
      break;
    }
    n = n * 10 + static_cast<std::size_t>(ch - '0');
  }
  if (ok && n >= 1 && n <= max) return n;
  LOG_WARN << "STELLARIS_KERNEL_THREADS=\"" << s << "\" is not \"auto\" or an "
           << "integer in [1, " << max << "]; kernels run serially";
  return 1;
}

std::size_t kernel_threads() {
  return thread_count().load(std::memory_order_relaxed);
}

void set_kernel_threads(std::size_t n) {
  thread_count().store(n == 0 ? 1 : n, std::memory_order_relaxed);
}

std::size_t apply_driver_thread_budget(std::size_t driver_threads,
                                       std::size_t hardware) {
  if (driver_threads <= 1) return kernel_threads();
  if (hardware == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    hardware = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }
  const std::size_t k = kernel_threads();
  if (driver_threads * k <= hardware) return k;
  const std::size_t clamped =
      std::max<std::size_t>(1, hardware / driver_threads);
  if (clamped < k) {
    set_kernel_threads(clamped);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      LOG_WARN << "kernel threads clamped " << k << " -> " << clamped << ": "
               << driver_threads << " driver threads x " << k
               << " kernel threads oversubscribes " << hardware
               << " hardware threads (results unchanged; kernels are "
               << "bit-identical at any thread count)";
    }
  }
  return kernel_threads();
}

std::uint64_t kernel_parallel_min_flops() {
  return min_flops().load(std::memory_order_relaxed);
}

// analyze:test-only-ok tests force the threaded GEMM path through it
void set_kernel_parallel_min_flops(std::uint64_t flops) {
  min_flops().store(flops, std::memory_order_relaxed);
}

namespace detail {

ThreadPool& kernel_pool(std::size_t threads) {
  static Mutex mu("tensor/kernel-pool", lock_rank::kKernelPool);
  static std::unique_ptr<ThreadPool> pool;
  MutexLock lock(mu);
  if (!pool || pool->size() != threads)
    pool = std::make_unique<ThreadPool>(threads);
  return *pool;
}

}  // namespace detail
}  // namespace stellaris::ops
