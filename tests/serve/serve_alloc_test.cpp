// Allocation slope of the serving engine thread (DESIGN.md §15.1).
//
// In steady state, a served request must cost the engine thread no heap
// allocation: events, batches, lanes, cutoff timers, policy keys, the
// body's observation matrix and the inline driver's jobs are all reused.
// This binary replaces the global operator new with a counting one, runs
// fig_serve's steady_2tenant scenario under the virtual driver for T and
// for 2T simulated seconds, and bounds the extra allocations per extra
// completed request. Warm-up (pools, contexts, the first decode) costs the
// same in both runs and cancels out of the slope; what remains is the
// per-request cost, plus the logarithmic growth of the latency log.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "serve/serve_engine.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, 0);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace stellaris::serve {
namespace {

TenantConfig tenant(const std::string& name, bool discrete, double rate,
                    double duration_s) {
  TenantConfig t;
  t.name = name;
  t.discrete = discrete;
  t.obs_dim = discrete ? 12 : 8;
  t.act_dim = discrete ? 6 : 3;
  t.hidden = 16;
  t.batch.max_batch = 32;
  t.batch.max_wait_s = 0.002;
  t.traffic.rate_per_s = rate;
  t.traffic.duration_s = duration_s;
  return t;
}

/// fig_serve's steady_2tenant over `duration_s`, the walker burst over
/// [1/3, 1/2] of it.
ServeConfig steady_2tenant(double duration_s) {
  auto walker = tenant("walker", false, 250.0, duration_s);
  walker.traffic.burst_rate_per_s = 900.0;
  walker.traffic.burst_start_s = duration_s / 3.0;
  walker.traffic.burst_end_s = duration_s / 2.0;
  ServeConfig cfg;
  cfg.tenants = {walker, tenant("arcade", true, 150.0, duration_s)};
  cfg.worker_capacity = 16;
  cfg.autoscale.max_workers = 8;
  cfg.autoscale.queue_per_worker = 32.0;
  cfg.autoscale.eval_period_s = 0.25;
  cfg.seed = 42;
  return cfg;
}

struct Count {
  std::uint64_t allocs = 0;
  std::uint64_t completed = 0;
};

Count run_counted(double duration_s) {
  const ServeConfig cfg = steady_2tenant(duration_s);
  ServeEngine eng(cfg);
  for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
    eng.publish_policy(t, make_policy_params(cfg.tenants[t], 100 + t),
                       cfg.tenants[t].initial_version);
  const std::uint64_t before = g_allocs.load();
  const ServeResult res = eng.run();
  return {g_allocs.load() - before, res.completed};
}

TEST(ServeAllocs, SteadyStateRequestsDoNotAllocate) {
  run_counted(5.0);  // process-wide first-use state (metrics, scratch pools)
  const Count one = run_counted(60.0);
  const Count two = run_counted(120.0);
  ASSERT_GT(two.completed, one.completed + 10000);
  const double slope =
      static_cast<double>(two.allocs) - static_cast<double>(one.allocs);
  const double per_request =
      slope / static_cast<double>(two.completed - one.completed);
  RecordProperty("allocs_per_request", std::to_string(per_request));
  std::printf("allocations: %llu over %llu requests (T), %llu over %llu (2T)"
              " -> %.4f per extra request\n",
              static_cast<unsigned long long>(one.allocs),
              static_cast<unsigned long long>(one.completed),
              static_cast<unsigned long long>(two.allocs),
              static_cast<unsigned long long>(two.completed), per_request);
  EXPECT_LE(per_request, 0.05);
}

}  // namespace
}  // namespace stellaris::serve
