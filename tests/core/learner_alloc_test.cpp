// Heap working set of one arcade learner update (DESIGN.md §9).
//
// A serverless learner runs in a freshly invoked function, so every byte an
// update allocates is first-touched memory: page faults and DRAM traffic
// on every invocation. This binary replaces the global operator new with
// a counting one and runs one IMPACT compute_learner_update at
// arcade_impact_par's shape (768 frames of 3×20×20 in two trajectories,
// NetworkSpec::atari()) on a fresh model pair and a fresh thread-local
// ScratchPool, then bounds the bytes allocated and the largest block.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/learner_update.hpp"
#include "envs/env.hpp"
#include "rl/vec_actor.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_largest{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size,
                                            std::memory_order_relaxed)) {
    }
  }
  if (size == 0) size = 1;
  return align > alignof(std::max_align_t)
             ? std::aligned_alloc(align, (size + align - 1) / align * align)
             : std::malloc(size);
}

// Out of line: GCC's -Wmismatched-new-delete flags a free() it sees
// inlined against the replaced operator new of a make_unique.
[[gnu::noinline]] void counted_free(void* p) { std::free(p); }

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
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace stellaris::core {
namespace {

// Measured at 768 frames with the tiled Conv2d: 21.4 MiB in all, largest
// block 1.50 MiB (a conv1 activation, 768 × 512 floats). The whole-batch
// conv allocated 49.4 MiB, largest block 14.06 MiB (its lowering).
constexpr std::uint64_t kMaxBytes = 28ull << 20;
constexpr std::uint64_t kMaxBlock = 2ull << 20;

TEST(LearnerAlloc, ArcadeImpactUpdateWorkingSet) {
  const envs::EnvSpec spec = envs::env_spec("SpaceInvaders");
  const nn::NetworkSpec net = nn::NetworkSpec::atari();
  auto model = std::make_unique<nn::ActorCritic>(
      spec.obs, spec.action_kind, spec.act_dim, net, 1);
  auto target = std::make_unique<nn::ActorCritic>(
      spec.obs, spec.action_kind, spec.act_dim, net, 2);
  // Two trajectories of 4 envs × 96 steps, as arcade_impact_par's learner
  // merges them.
  std::vector<rl::SampleBatch> parts;
  for (std::uint64_t seed : {3u, 4u}) {
    rl::VecActor actor(
        std::make_unique<envs::VecEnv>("SpaceInvaders", 4, seed), seed);
    rl::VecActorScratch scratch;
    parts.push_back(actor.sample(*model, scratch, 96, 0));
  }
  rl::SampleBatch batch = rl::SampleBatch::concat(parts);
  ASSERT_EQ(batch.size(), 768u);
  const std::vector<float> pulled = model->flat_params();
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kImpact;

  g_counting = true;
  const LearnerUpdate update =
      compute_learner_update(cfg, *model, *target, pulled, batch);
  g_counting = false;
  EXPECT_EQ(update.delta.size(), model->flat_size());
  std::printf("learner update: %.2f MB allocated, largest block %.2f MB\n",
              static_cast<double>(g_bytes.load()) / (1 << 20),
              static_cast<double>(g_largest.load()) / (1 << 20));
  EXPECT_LE(g_bytes.load(), kMaxBytes);
  EXPECT_LE(g_largest.load(), kMaxBlock);
}

}  // namespace
}  // namespace stellaris::core
