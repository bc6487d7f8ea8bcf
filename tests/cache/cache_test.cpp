#include "cache/distributed_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace stellaris::cache {
namespace {

Bytes bytes_of(std::initializer_list<std::uint8_t> v) { return Bytes(v); }

/// Materialize a read's span view for content comparisons.
Bytes read_bytes(const CacheValue& v) {
  return Bytes(v.bytes().begin(), v.bytes().end());
}

TEST(Cache, PutGetRoundTrip) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3}));
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(read_bytes(*v), bytes_of({1, 2, 3}));
  EXPECT_EQ(v->version, 1u);
  EXPECT_EQ(v->size_bytes(), 3u);
}

TEST(Cache, MissingKeyIsNullopt) {
  DistributedCache cache;
  EXPECT_FALSE(cache.get("nope").has_value());
  EXPECT_THROW(cache.get_or_throw("nope"), CacheError);
}

TEST(Cache, VersionsIncrementPerKey) {
  DistributedCache cache;
  EXPECT_EQ(cache.put("a", Bytes{}), 1u);
  EXPECT_EQ(cache.put("a", Bytes{}), 2u);
  EXPECT_EQ(cache.put("b", Bytes{}), 1u);
  EXPECT_EQ(cache.version("a"), 2u);
  EXPECT_EQ(cache.version("missing"), 0u);
}

TEST(Cache, OverwriteReplacesValue) {
  DistributedCache cache;
  cache.put("k", bytes_of({1}));
  cache.put("k", bytes_of({9, 9}));
  EXPECT_EQ(read_bytes(*cache.get("k")), bytes_of({9, 9}));
  EXPECT_EQ(cache.resident_bytes(), 2u);
}

TEST(Cache, EraseRemoves) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2}));
  EXPECT_TRUE(cache.erase("k"));
  EXPECT_FALSE(cache.erase("k"));
  EXPECT_EQ(cache.version("k"), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(Cache, StatsTrackTraffic) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3, 4}));
  (void)cache.get("k");
  (void)cache.get("absent");
  auto s = cache.stats();
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.bytes_written, 4u);
  EXPECT_EQ(s.bytes_read, 4u);
}

// ---- Zero-copy payload plane ----

TEST(Cache, ReadAliasesTheStoredPayloadBuffer) {
  DistributedCache cache;
  Bytes payload(1024, 0xab);
  const std::uint8_t* heap_block = payload.data();
  cache.put("k", std::move(payload));
  // The read's view points into the very heap block the writer filled:
  // no byte was copied on the write or the read path.
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->bytes().data(), heap_block);
  // Concurrent readers share one payload (refcount, not duplication).
  auto v2 = cache.get("k");
  EXPECT_EQ(v2->payload.get(), v->payload.get());
  EXPECT_GE(v->payload.use_count(), 3);  // store + two readers
}

TEST(Cache, ViewOutlivesOverwriteAndErase) {
  DistributedCache cache;
  cache.put("k", bytes_of({1, 2, 3}));
  auto v = cache.get("k");
  cache.put("k", bytes_of({9}));  // overwrite replaces the entry's pointer
  cache.erase("k");
  // The old snapshot is still alive and unchanged through our refcount.
  EXPECT_EQ(read_bytes(*v), bytes_of({1, 2, 3}));
}

TEST(Cache, PutPayloadStoresWithoutCopy) {
  DistributedCache cache;
  auto payload = std::make_shared<const Bytes>(bytes_of({4, 5, 6}));
  cache.put("k", payload);
  auto v = cache.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->payload.get(), payload.get());
}

// ---- Accounting: exactly one bump per logical read on every path ----

TEST(Cache, BytesReadCountsEachLogicalReadOnceAcrossAllPaths) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", Bytes(10, 1));

  (void)cache.get("k");                           // 1
  (void)cache.get_or_throw("k");                  // 2
  (void)cache.get_blocking("k", 0, engine, 5.0);  // 3
  // 4: a blocking read of a newer version, after the put that makes it.
  cache.put("k", Bytes(10, 2));
  (void)cache.get_blocking("k", 1, engine, 5.0);

  auto s = cache.stats();
  EXPECT_EQ(s.hits, 4u);
  EXPECT_EQ(s.bytes_read, 40u);
  // Unsatisfied paths bump misses, never bytes_read.
  (void)cache.get("absent");
  (void)cache.get_blocking("k", 99, engine, 1.0);
  EXPECT_EQ(cache.stats().bytes_read, 40u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// ---- Sharding ----

TEST(Cache, ShardCountDoesNotChangeObservableState) {
  // Identical operation sequences must produce identical observable state
  // (keys, versions, stats, sizes) for ANY stripe count — the determinism
  // contract that keeps figures bit-identical.
  auto run = [](std::size_t shards) {
    DistributedCache cache(shards);
    for (int i = 0; i < 40; ++i)
      cache.put("traj/" + std::to_string(i % 13),
                Bytes(static_cast<std::size_t>(i % 7), 0x5a));
    cache.put("policy/latest", Bytes(64, 1));
    cache.put("policy/latest", Bytes(64, 2));
    (void)cache.get("policy/latest");
    (void)cache.get("traj/3");
    (void)cache.get("traj/404");
    cache.erase("traj/5");
    cache.erase("grad/0");  // absent: no effect
    struct Observed {
      std::vector<std::uint64_t> versions;  // 0 for an absent key
      std::size_t num_keys, resident;
      CacheStats stats;
    } o;
    for (int i = 0; i < 14; ++i)
      o.versions.push_back(cache.version("traj/" + std::to_string(i)));
    o.versions.push_back(cache.version("policy/latest"));
    o.versions.push_back(cache.version("grad/0"));
    o.num_keys = cache.num_keys();
    o.resident = cache.resident_bytes();
    o.stats = cache.stats();
    return o;
  };
  const auto base = run(1);
  for (std::size_t shards : {2u, 3u, 8u, 64u}) {
    const auto o = run(shards);
    EXPECT_EQ(o.versions, base.versions) << shards << " shards";
    EXPECT_EQ(o.num_keys, base.num_keys) << shards << " shards";
    EXPECT_EQ(o.resident, base.resident) << shards << " shards";
    EXPECT_EQ(o.stats.puts, base.stats.puts) << shards << " shards";
    EXPECT_EQ(o.stats.gets, base.stats.gets) << shards << " shards";
    EXPECT_EQ(o.stats.hits, base.stats.hits) << shards << " shards";
    EXPECT_EQ(o.stats.misses, base.stats.misses) << shards << " shards";
    EXPECT_EQ(o.stats.erases, base.stats.erases) << shards << " shards";
    EXPECT_EQ(o.stats.bytes_written, base.stats.bytes_written)
        << shards << " shards";
    EXPECT_EQ(o.stats.bytes_read, base.stats.bytes_read)
        << shards << " shards";
  }
}

TEST(Cache, SingleShardStillWorks) {
  DistributedCache cache(1);
  EXPECT_EQ(cache.num_shards(), 1u);
  cache.put("a", bytes_of({1}));
  cache.put("b", bytes_of({2}));
  EXPECT_EQ(cache.num_keys(), 2u);
  EXPECT_EQ(read_bytes(*cache.get("a")), bytes_of({1}));
}

TEST(Cache, HammerMixedOpsAcrossStripes) {
  // TSan target: readers, writers, blocking readers, and erasers racing
  // across all stripes (hot shared keys + thread-private keys), including
  // blocking reads that miss while other stripes are being written.
  DistributedCache cache(4);
  constexpr int kThreads = 8;
  constexpr int kOps = 300;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &go, t] {
      sim::Engine engine;  // the virtual clock get_blocking reads
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        const std::string hot = "hot/" + std::to_string((i / 5) % 5);
        // append, not "t" + ...: GCC 12 reports a false -Wrestrict on the
        // insert that operator+ inlines here.
        const std::string mine = std::string("t")
                                     .append(std::to_string(t))
                                     .append("/")
                                     .append(std::to_string(i));
        switch (i % 5) {
          case 0:
            cache.put(hot, Bytes(64, static_cast<std::uint8_t>(t)));
            break;
          case 1:
            cache.put(mine, Bytes(16, static_cast<std::uint8_t>(i)));
            break;
          case 2:
            if (auto v = cache.get(hot)) {
              // Touch the shared payload after the lock is released.
              volatile std::uint8_t sink = v->bytes().empty()
                                               ? std::uint8_t{0}
                                               : v->bytes().front();
              (void)sink;
            }
            break;
          case 3:
            (void)cache.get_blocking(hot, /*min_version=*/0, engine, 1.0);
            break;
          default:
            cache.erase(mine);
            break;
        }
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  // Sanity: the cache is still coherent after the storm.
  auto s = cache.stats();
  EXPECT_EQ(s.puts, kThreads * kOps * 2u / 5u);
  // Every hot key was written; the erases name keys never written, so each
  // thread's private keys all survive.
  for (int k = 0; k < 5; ++k)
    EXPECT_GT(cache.version("hot/" + std::to_string(k)), 0u);
  EXPECT_EQ(cache.num_keys(), 5u + kThreads * kOps / 5u);
}

TEST(Cache, ConcurrentWritersKeepCountsConsistent) {
  DistributedCache cache;
  constexpr int kThreads = 4;
  constexpr int kWrites = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kWrites; ++i)
        cache.put("key/" + std::to_string(t) + "/" + std::to_string(i),
                  Bytes(8, static_cast<std::uint8_t>(i)));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(cache.num_keys(), kThreads * kWrites);
  EXPECT_EQ(cache.stats().puts, kThreads * kWrites);
  EXPECT_EQ(cache.resident_bytes(), kThreads * kWrites * 8u);
}

TEST(Cache, ConcurrentSameKeyVersionsAreDense) {
  DistributedCache cache;
  constexpr int kThreads = 4;
  constexpr int kWrites = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&cache] {
      for (int i = 0; i < kWrites; ++i) cache.put("hot", Bytes{1});
    });
  for (auto& th : threads) th.join();
  // Every write bumped the version exactly once.
  EXPECT_EQ(cache.version("hot"), kThreads * kWrites);
}

TEST(Cache, ClearEmptiesStore) {
  DistributedCache cache;
  cache.put("a", bytes_of({1}));
  cache.put("b", bytes_of({2}));
  cache.clear();
  EXPECT_EQ(cache.num_keys(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// ---- Virtual-time reads (simulation-driven callers) ----

TEST(Cache, BlockingGetReturnsExistingNewValue) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({5}));
  cache.put("k", bytes_of({6, 7}));
  // A newer version already resident satisfies the read with that version.
  const auto v = cache.get_blocking("k", 1, engine, 0.01);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 2u);
  EXPECT_EQ(read_bytes(*v), bytes_of({6, 7}));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(Cache, BlockingGetTimesOutOnStaleVersion) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({5}));
  const obs::Counter& timeouts =
      obs::metrics().counter("cache.blocked_read_timeouts");
  const std::uint64_t before = timeouts.value();
  // Demand version > 1, nobody writes: timeout, without advancing time.
  EXPECT_FALSE(cache.get_blocking("k", 1, engine, 0.02).has_value());
  EXPECT_EQ(timeouts.value(), before + 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
}

TEST(Cache, VirtualBlockingGetHitsImmediately) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({1, 2}));
  const auto v = cache.get_blocking("k", 0, engine, 5.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);  // no virtual time consumed
}

TEST(Cache, VirtualBlockingGetRespectsMinVersion) {
  DistributedCache cache;
  sim::Engine engine;
  cache.put("k", bytes_of({1}));
  // Version 1 is not > 1: deterministic miss, counted as a timeout.
  EXPECT_FALSE(cache.get_blocking("k", 1, engine, 5.0).has_value());
  cache.put("k", bytes_of({2}));
  const auto v = cache.get_blocking("k", 1, engine, 5.0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->version, 2u);
}

}  // namespace
}  // namespace stellaris::cache
