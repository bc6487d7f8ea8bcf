// Unit tests for the execution drivers (sim/driver.hpp, DESIGN.md §14):
// job lifecycle, chained `after` dependencies, exception capture, drain,
// the per-invocation RNG stream keying, and the kernel-thread budget clamp.
#include "sim/driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "tensor/kernel_config.hpp"
#include "util/rng.hpp"

namespace stellaris::sim {
namespace {

TEST(DriverKind, NamesAndParsing) {
  ASSERT_TRUE(parse_driver_kind("virtual").has_value());
  EXPECT_EQ(*parse_driver_kind("virtual"), DriverKind::kVirtual);
  ASSERT_TRUE(parse_driver_kind("concurrent").has_value());
  EXPECT_EQ(*parse_driver_kind("concurrent"), DriverKind::kConcurrent);
  EXPECT_FALSE(parse_driver_kind("threads").has_value());
  EXPECT_FALSE(parse_driver_kind("").has_value());
}

TEST(DriverKind, ResolveThreads) {
  EXPECT_EQ(resolve_driver_threads(4), 4u);
  EXPECT_EQ(resolve_driver_threads(1), 1u);
  // 0 = one per hardware thread; always at least one.
  EXPECT_GE(resolve_driver_threads(0), 1u);
}

TEST(InvocationStream, DeterministicAndDistinct) {
  const std::uint64_t a = invocation_stream(7, 42, 1);
  EXPECT_EQ(a, invocation_stream(7, 42, 1));
  // Any coordinate change must give a different stream: a retry re-samples
  // fresh randomness, and two invocations never share a stream.
  EXPECT_NE(a, invocation_stream(7, 42, 2));
  EXPECT_NE(a, invocation_stream(7, 43, 1));
  EXPECT_NE(a, invocation_stream(8, 42, 1));
  // The stream seeds a usable generator.
  Rng rng(a);
  (void)rng.next();
}

TEST(InlineDriver, RunsBodiesSynchronously) {
  Driver& d = inline_driver();
  EXPECT_STREQ(d.name(), "virtual");
  EXPECT_EQ(d.worker_threads(), 0u);
  int calls = 0;
  auto first = d.submit([&] { ++calls; });
  EXPECT_EQ(calls, 1);  // inline: body ran inside submit
  auto second = d.submit([&] { ++calls; }, first);
  EXPECT_EQ(calls, 2);
  Driver::join(first);
  Driver::join(second);
  d.drain();
}

TEST(InlineDriver, ExceptionRethrownAtJoin) {
  Driver& d = inline_driver();
  auto job = d.submit([] { throw std::runtime_error("body failed"); });
  EXPECT_THROW(Driver::join(job), std::runtime_error);
}

TEST(ConcurrentDriver, RunsAllBodies) {
  auto d = make_driver(DriverKind::kConcurrent, 4);
  EXPECT_STREQ(d->name(), "concurrent");
  EXPECT_EQ(d->worker_threads(), 4u);
  std::atomic<int> calls{0};
  std::vector<Driver::Job> jobs;
  for (int i = 0; i < 64; ++i)
    jobs.push_back(d->submit([&] { calls.fetch_add(1); }));
  for (const auto& j : jobs) Driver::join(j);
  EXPECT_EQ(calls.load(), 64);
}

TEST(ConcurrentDriver, AfterChainSerializesInSubmitOrder) {
  auto d = make_driver(DriverKind::kConcurrent, 4);
  // One chain through a single vector: without the `after` dependency the
  // pushes would race; with it the vector must come out in submit order.
  std::vector<int> order;
  Driver::Job prev;
  for (int i = 0; i < 32; ++i) {
    prev = d->submit([&order, i] { order.push_back(i); }, prev);
  }
  Driver::join(prev);
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(ConcurrentDriver, ExceptionRethrownAtJoin) {
  auto d = make_driver(DriverKind::kConcurrent, 2);
  auto ok = d->submit([] {});
  auto bad = d->submit([] { throw std::runtime_error("boom"); });
  Driver::join(ok);
  EXPECT_THROW(Driver::join(bad), std::runtime_error);
  d->drain();
}

TEST(ConcurrentDriver, AbandonedJobsAreReapedByDrain) {
  auto d = make_driver(DriverKind::kConcurrent, 2);
  std::atomic<int> calls{0};
  for (int i = 0; i < 16; ++i) d->submit([&] { calls.fetch_add(1); });
  d->drain();  // never joined individually — the fault-plane abandon path
  EXPECT_EQ(calls.load(), 16);
}

TEST(ConcurrentDriver, SingleThreadStillCompletesChains) {
  auto d = make_driver(DriverKind::kConcurrent, 1);
  std::vector<int> order;
  Driver::Job prev;
  for (int i = 0; i < 8; ++i)
    prev = d->submit([&order, i] { order.push_back(i); }, prev);
  Driver::join(prev);
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(DriverThreadBudget, ClampsOnOversubscription) {
  const std::size_t saved = ops::kernel_threads();
  // 8 kernel threads × 4 driver threads on a "16-hardware-thread" machine
  // oversubscribes; the budget clamps kernels to 16/4 = 4.
  ops::set_kernel_threads(8);
  EXPECT_EQ(ops::apply_driver_thread_budget(4, 16), 4u);
  EXPECT_EQ(ops::kernel_threads(), 4u);
  ops::set_kernel_threads(saved);
}

TEST(DriverThreadBudget, NoClampWhenBudgetFits) {
  const std::size_t saved = ops::kernel_threads();
  ops::set_kernel_threads(2);
  EXPECT_EQ(ops::apply_driver_thread_budget(4, 16), 2u);
  EXPECT_EQ(ops::kernel_threads(), 2u);
  // driver_threads <= 1 (the virtual driver) never clamps.
  ops::set_kernel_threads(64);
  EXPECT_EQ(ops::apply_driver_thread_budget(1, 16), 64u);
  EXPECT_EQ(ops::kernel_threads(), 64u);
  ops::set_kernel_threads(saved);
}

TEST(DriverThreadBudget, NeverClampsBelowOne) {
  const std::size_t saved = ops::kernel_threads();
  ops::set_kernel_threads(8);
  EXPECT_EQ(ops::apply_driver_thread_budget(32, 16), 1u);
  EXPECT_EQ(ops::kernel_threads(), 1u);
  ops::set_kernel_threads(saved);
}

}  // namespace
}  // namespace stellaris::sim
