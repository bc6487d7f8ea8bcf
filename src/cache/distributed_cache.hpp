// Distributed Cache — the in-memory key-value buffer at the center of the
// paper's workflow (§IV): actors publish serialized trajectory batches,
// learner functions publish gradients, and the parameter function publishes
// policy model weights; everyone else polls or blocks for them.
//
// This is our Redis substitute: a thread-safe versioned KV store with
//  - monotonically increasing per-key versions (so pollers can ask for
//    "anything newer than what I last saw"),
//  - a virtual-time blocking read for simulation-driven callers,
//  - byte and hit/miss accounting that feeds the data-passing latency model.
//
// Data-plane design (DESIGN.md §12):
//  - **Zero-copy reads.** Entries own their payload through
//    `std::shared_ptr<const Bytes>`; every read hands back the refcounted
//    payload plus a span view, so `get`/`get_blocking` never copy bytes.
//    A put replaces the entry's pointer — readers still holding the old
//    payload keep a valid immutable snapshot.
//  - **Sharded store.** Keys hash (FNV-1a, platform-stable) onto N stripes,
//    each behind its own annotated Mutex at rank `lock_rank::kCache`. The
//    stripes are rank-equal peers: no code path ever holds two shard locks
//    at once (whole-cache operations visit shards one at a time in index
//    order), which the runtime lock-order checker enforces. Aggregate
//    results (stats, byte and key counts) are order-independent sums, so
//    figures are bit-identical for any shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/annotated_mutex.hpp"

namespace stellaris::cache {

using Bytes = std::vector<std::uint8_t>;
/// Immutable refcounted payload: shared between the store and any number
/// of concurrent readers. Never mutated after publication.
using Payload = std::shared_ptr<const Bytes>;

/// Value + metadata returned by reads. Holds the payload alive via the
/// refcount and exposes it as a span — no byte copy happens on any read
/// path. The view stays valid for the lifetime of this CacheValue even if
/// the key is overwritten or erased after the read.
struct CacheValue {
  Payload payload;            ///< refcounted ownership of the bytes
  std::uint64_t version = 0;  ///< per-key write counter, starts at 1

  std::span<const std::uint8_t> bytes() const {
    return payload ? std::span<const std::uint8_t>(*payload)
                   : std::span<const std::uint8_t>{};
  }
  std::size_t size_bytes() const { return payload ? payload->size() : 0; }
};

/// Aggregate counters (monotonic since construction).
struct CacheStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t erases = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class DistributedCache {
 public:
  /// Default stripe count: enough to keep put/get contention negligible at
  /// fig06-scale actor counts while whole-cache scans stay cheap.
  static constexpr std::size_t kDefaultShards = 8;

  explicit DistributedCache(std::size_t num_shards = kDefaultShards);
  DistributedCache(const DistributedCache&) = delete;
  DistributedCache& operator=(const DistributedCache&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  /// Store (replacing any prior value); returns the new version.
  std::uint64_t put(const std::string& key, Bytes value);
  /// Store an already-refcounted payload (no copy; `value` must not be
  /// mutated afterwards). Null payloads are stored as empty.
  std::uint64_t put(const std::string& key, Payload value);

  /// Non-blocking read.
  std::optional<CacheValue> get(const std::string& key) const;

  /// Read that throws CacheError on miss — for keys the protocol guarantees.
  CacheValue get_or_throw(const std::string& key) const;

  /// Read `key` once it has a version > `min_version` (0 accepts any
  /// value), waiting at most `timeout_s` of virtual time. The event loop
  /// is single-threaded, so no other event can publish the key while this
  /// call "waits": the wait collapses deterministically to an immediate
  /// hit (the key is already satisfied) or a miss accounted as a timeout
  /// at `engine.now() + timeout_s` — no wall-clock sleep, no
  /// nondeterminism, and the virtual clock never advances.
  std::optional<CacheValue> get_blocking(const std::string& key,
                                         std::uint64_t min_version,
                                         sim::Engine& engine,
                                         double timeout_s);

  /// Current version of a key (0 if absent).
  std::uint64_t version(const std::string& key) const;

  /// Remove a key; returns whether it existed.
  bool erase(const std::string& key);

  std::size_t num_keys() const;
  /// Total payload bytes currently resident.
  std::size_t resident_bytes() const;

  /// Sample cache occupancy (`cache.num_keys`, `cache.resident_bytes`)
  /// into the active time-series recorder at virtual time `t_s`. The cache
  /// has no clock of its own, so callers pass the time. No-op when
  /// sampling is disabled. Both quantities are order-free shard sums, so
  /// the samples are identical for any shard count (DESIGN.md §12).
  void sample_depth(double t_s) const;

  CacheStats stats() const;

  void clear();

 private:
  struct Entry {
    Payload data;  ///< never null once written
    std::uint64_t version = 0;
  };
  /// One lock stripe. All stripes share rank kCache and are never nested;
  /// whole-cache operations lock them one at a time in index order.
  struct Shard {
    Mutex mu{"cache/shard", lock_rank::kCache};
    // Per-key versioned entries. Iteration order is shard-private and never
    // observable: aggregate reads reduce order-independently (stats,
    // byte/key counts).
    // analyze:unordered-ok — outputs order-independent (see above)
    std::unordered_map<std::string, Entry> store GUARDED_BY(mu);
    std::size_t resident_bytes GUARDED_BY(mu) = 0;
    CacheStats stats GUARDED_BY(mu);
  };

  Shard& shard_for(const std::string& key) const;

  /// Account a hit against `s` and return the entry's refcounted value.
  /// The single place where hits/bytes_read are bumped: every successful
  /// read on every path (plain and blocking) funnels through here, so each
  /// logical read is counted exactly once.
  CacheValue read_entry_locked(Shard& s, const Entry& entry) const
      REQUIRES(s.mu);
  /// The entry for `key` if it exists with version > min_version.
  static const Entry* find_ready_locked(const Shard& s,
                                        const std::string& key,
                                        std::uint64_t min_version)
      REQUIRES(s.mu);

  // Stripes are fixed at construction; the vector itself is immutable, so
  // unsynchronized shard lookup is safe. unique_ptr keeps Shard addresses
  // stable (Mutex is not movable).
  std::vector<std::unique_ptr<Shard>> shards_;

  // Process-wide observability mirrors of the per-instance stats (resolved
  // once at construction; updates are relaxed atomics).
  obs::Counter* m_puts_;
  obs::Counter* m_gets_;
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_erases_;
  obs::Counter* m_bytes_written_;
  obs::Counter* m_bytes_read_;
  obs::Counter* m_blocked_timeouts_;
  obs::Gauge* m_resident_bytes_;
};

}  // namespace stellaris::cache
