// Metrics registry — named counters, gauges, and fixed-bucket histograms
// with lock-cheap updates.
//
// Registration (name → instrument) takes the registry mutex once; the
// returned references are stable for the life of the process, so call
// sites look instruments up at construction time. A counter add is a
// plain load and store on the calling thread's own shard slot (no locked
// instruction), and a gauge or histogram update is a few relaxed atomics
// — cheap enough to leave on in the hot paths without perturbing the
// virtual-time results.
//
// Snapshots export as JSON (machine-readable, round-trips through the
// tests' parser) or CSV (for quick spreadsheet/plot use).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotated_mutex.hpp"

namespace stellaris::obs {

namespace detail {
/// A thread's counter slots come in blocks of kCounterBlockSlots, slot
/// `id` in block id / kCounterBlockSlots; at most kCounterMaxBlocks
/// blocks, so at most 4096 counters are alive at once.
inline constexpr std::size_t kCounterBlockShift = 6;
inline constexpr std::size_t kCounterBlockSlots = std::size_t{1}
                                                  << kCounterBlockShift;
inline constexpr std::size_t kCounterMaxBlocks = 64;

/// One thread's counter shard: slot `id` holds that thread's adds to the
/// counter with that id. Only the owning thread writes its slots; readers
/// on other threads load them. A block is allocated zeroed at the owner's
/// first add to one of its counters and published with a release store.
struct CounterShard {
  std::atomic<std::atomic<std::uint64_t>*> blocks[kCounterMaxBlocks] = {};
};

/// The calling thread's shard; null until its first add.
inline thread_local CounterShard* tls_counter_shard = nullptr;
}  // namespace detail

/// Monotonic event counter, sharded per thread. add() touches only the
/// calling thread's slot; value() sums every live thread's slot plus what
/// threads that have exited folded in, so it is exact once the adds it
/// should see have happened-before the read. reset() zeroes the counter
/// without writing any thread's slot; an add racing a reset may land on
/// either side of it.
class Counter {
 public:
  Counter();
  ~Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    detail::CounterShard* shard = detail::tls_counter_shard;
    std::atomic<std::uint64_t>* block =
        shard == nullptr
            ? nullptr
            : shard->blocks[id_ >> detail::kCounterBlockShift].load(
                  std::memory_order_relaxed);
    if (block == nullptr) [[unlikely]] {
      add_slow(n);
      return;
    }
    std::atomic<std::uint64_t>& slot =
        block[id_ & (detail::kCounterBlockSlots - 1)];
    slot.store(slot.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  void add_slow(std::uint64_t n);

  std::size_t id_ = 0;  // this counter's slot in every thread's shard
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double dx);
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-width binned histogram over [lo, hi]; out-of-range observations
/// clamp into the edge bins (mirroring util/stats.hpp's Histogram), while
/// sum/min/max track the exact values. All updates are relaxed atomics.
class FixedHistogram {
 public:
  FixedHistogram(double lo, double hi, std::size_t bins);

  void observe(double x);

  std::uint64_t count() const { return n_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Exact min/max of observed values (0 when empty).
  double min() const;
  double max() const;

  std::size_t bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
  std::uint64_t bin_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// q-quantile (q in [0,1]) estimated from the buckets with linear
  /// interpolation inside the containing bucket — accurate to one bucket
  /// width. Returns 0 when empty.
  double quantile(double q) const;

  void reset();

 private:
  double lo_, hi_, width_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> n_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Look up or create. References stay valid for the registry's lifetime;
  /// reset() zeroes values but never invalidates them. Re-registering a
  /// histogram with different bounds keeps the original bounds.
  Counter& counter(const std::string& name) EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) EXCLUDES(mu_);
  FixedHistogram& histogram(const std::string& name, double lo, double hi,
                            std::size_t bins) EXCLUDES(mu_);

  /// Zero every instrument in place (handles stay valid).
  void reset() EXCLUDES(mu_);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{lo,hi,count,sum,
  /// min,max,buckets:[...]}}}
  void write_json(std::ostream& os) const EXCLUDES(mu_);

  /// Flat rows: kind,name,field,value (one row per scalar; histograms emit
  /// count/sum/mean/min/max/p50/p95/p99).
  void write_csv(std::ostream& os) const EXCLUDES(mu_);

  /// Dump to `path` — CSV when the extension is .csv, JSON otherwise.
  bool write_file(const std::string& path) const EXCLUDES(mu_);

  /// The process-wide registry used by the instrumented subsystems.
  static MetricsRegistry& global();

 private:
  // Reader/writer split: registration (rare, at component construction)
  // takes the mutex exclusively; exporters take it shared, so concurrent
  // JSON/CSV snapshots never serialize against each other. Instrument
  // *values* are not guarded by it: gauges and histograms are relaxed
  // atomics, and counters guard their shard list with a lock of their own.
  mutable SharedMutex mu_{"obs/metrics-registry", lock_rank::kMetricsRegistry};
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<FixedHistogram>> histograms_
      GUARDED_BY(mu_);
};

}  // namespace stellaris::obs
