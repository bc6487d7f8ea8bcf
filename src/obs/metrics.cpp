#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "obs/trace.hpp"  // TraceArg::render_double for JSON numbers
#include "util/error.hpp"

namespace stellaris::obs {

namespace {

void atomic_add(std::atomic<double>& a, double dx) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x < cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (x > cur &&
         !a.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

std::string num(double v) { return TraceArg::render_double(v); }

using detail::CounterShard;
using detail::kCounterBlockShift;
using detail::kCounterBlockSlots;
using detail::kCounterMaxBlocks;

// Every live thread's shard and, per counter id, the base its shards'
// slots add to: the adds of threads that have exited, minus the slot sums
// at the counter's last reset (or at its construction, for an id reused
// after its previous counter died). Unsigned arithmetic wraps, so
// value = base + Σ slots is exact modulo 2^64 even when a term is
// "negative". Leaked, so threads that exit during static destruction can
// still fold their shards in.
struct CounterShards {
  Mutex mu{"obs/counter-shards", lock_rank::kCounterShards};
  std::vector<CounterShard*> live GUARDED_BY(mu);
  std::vector<std::uint64_t> base GUARDED_BY(mu);
  std::vector<std::size_t> free_ids GUARDED_BY(mu);

  std::uint64_t live_sum_locked(std::size_t id) const REQUIRES(mu) {
    std::uint64_t sum = 0;
    for (const CounterShard* shard : live) {
      const std::atomic<std::uint64_t>* block =
          shard->blocks[id >> kCounterBlockShift].load(
              std::memory_order_acquire);
      if (block != nullptr)
        sum += block[id & (kCounterBlockSlots - 1)].load(
            std::memory_order_relaxed);
    }
    return sum;
  }
};

CounterShards& counter_shards() {
  static CounterShards* shards = new CounterShards;
  return *shards;
}

// Set once the calling thread's shard is gone: a later add (from another
// thread-local destructor) goes straight to the counter's base.
thread_local bool shard_exited = false;

// Owns the calling thread's shard: registers it on construction and, at
// thread exit, folds every slot into its counter's base and frees it.
class ShardOwner {
 public:
  ShardOwner() {
    CounterShards& cs = counter_shards();
    MutexLock lock(cs.mu);
    cs.live.push_back(&shard_);
    detail::tls_counter_shard = &shard_;
  }

  ~ShardOwner() {
    CounterShards& cs = counter_shards();
    MutexLock lock(cs.mu);
    std::erase(cs.live, &shard_);
    for (std::size_t b = 0; b < kCounterMaxBlocks; ++b) {
      std::atomic<std::uint64_t>* block =
          shard_.blocks[b].load(std::memory_order_relaxed);
      if (block == nullptr) continue;
      for (std::size_t lane = 0; lane < kCounterBlockSlots; ++lane) {
        const std::size_t id = (b << kCounterBlockShift) | lane;
        if (id < cs.base.size())
          cs.base[id] += block[lane].load(std::memory_order_relaxed);
      }
      delete[] block;
    }
    detail::tls_counter_shard = nullptr;
    shard_exited = true;
  }

  ShardOwner(const ShardOwner&) = delete;
  ShardOwner& operator=(const ShardOwner&) = delete;

 private:
  CounterShard shard_;
};

}  // namespace

Counter::Counter() {
  CounterShards& cs = counter_shards();
  MutexLock lock(cs.mu);
  if (!cs.free_ids.empty()) {
    id_ = cs.free_ids.back();
    cs.free_ids.pop_back();
  } else {
    STELLARIS_CHECK_MSG(cs.base.size() < kCounterMaxBlocks * kCounterBlockSlots,
                        "more than " << kCounterMaxBlocks * kCounterBlockSlots
                                     << " live counters");
    id_ = cs.base.size();
    cs.base.push_back(0);
  }
  // A reused id may still hold a dead counter's adds in live slots.
  cs.base[id_] = 0 - cs.live_sum_locked(id_);
}

Counter::~Counter() {
  CounterShards& cs = counter_shards();
  MutexLock lock(cs.mu);
  cs.free_ids.push_back(id_);
}

void Counter::add_slow(std::uint64_t n) {
  if (shard_exited) {
    CounterShards& cs = counter_shards();
    MutexLock lock(cs.mu);
    cs.base[id_] += n;
    return;
  }
  static thread_local ShardOwner owner;
  std::atomic<std::atomic<std::uint64_t>*>& slot =
      detail::tls_counter_shard->blocks[id_ >> kCounterBlockShift];
  if (slot.load(std::memory_order_relaxed) == nullptr)
    slot.store(new std::atomic<std::uint64_t>[kCounterBlockSlots](),
               std::memory_order_release);
  add(n);
}

std::uint64_t Counter::value() const {
  CounterShards& cs = counter_shards();
  MutexLock lock(cs.mu);
  return cs.base[id_] + cs.live_sum_locked(id_);
}

void Counter::reset() {
  CounterShards& cs = counter_shards();
  MutexLock lock(cs.mu);
  cs.base[id_] = 0 - cs.live_sum_locked(id_);
}

void Gauge::add(double dx) { atomic_add(v_, dx); }

FixedHistogram::FixedHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins) {
  STELLARIS_CHECK_MSG(bins > 0 && hi > lo,
                      "histogram needs bins > 0 and hi > lo");
}

void FixedHistogram::observe(double x) {
  const auto last = static_cast<double>(counts_.size() - 1);
  const double idx = std::clamp((x - lo_) / width_, 0.0, last);
  counts_[static_cast<std::size_t>(idx)].fetch_add(
      1, std::memory_order_relaxed);
  n_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

double FixedHistogram::mean() const {
  const std::uint64_t n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double FixedHistogram::min() const {
  const double m = min_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double FixedHistogram::max() const {
  const double m = max_.load(std::memory_order_relaxed);
  return std::isfinite(m) ? m : 0.0;
}

double FixedHistogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = bin_count(i);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double frac =
          c ? (target - static_cast<double>(cum)) / static_cast<double>(c)
            : 0.0;
      return std::clamp(bin_lo(i) + frac * width_, min(), max());
    }
    cum += c;
  }
  return max();
}

void FixedHistogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  n_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  WriterLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  WriterLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

FixedHistogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                           double hi, std::size_t bins) {
  WriterLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<FixedHistogram>(lo, hi, bins);
  return *slot;
}

void MetricsRegistry::reset() {
  WriterLock lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  ReaderLock lock(mu_);
  os << "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":" << c->value();
    first = false;
  }
  os << "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":" << num(g->value());
    first = false;
  }
  os << "\n},\n\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n\"" << name << "\":{\"lo\":" << num(h->lo())
       << ",\"hi\":" << num(h->hi()) << ",\"count\":" << h->count()
       << ",\"sum\":" << num(h->sum()) << ",\"min\":" << num(h->min())
       << ",\"max\":" << num(h->max()) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h->bins(); ++i)
      os << (i ? "," : "") << h->bin_count(i);
    os << "]}";
    first = false;
  }
  os << "\n}\n}\n";
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  ReaderLock lock(mu_);
  os << "kind,name,field,value\n";
  for (const auto& [name, c] : counters_)
    os << "counter," << name << ",value," << c->value() << "\n";
  for (const auto& [name, g] : gauges_)
    os << "gauge," << name << ",value," << num(g->value()) << "\n";
  for (const auto& [name, h] : histograms_) {
    os << "histogram," << name << ",count," << h->count() << "\n";
    os << "histogram," << name << ",sum," << num(h->sum()) << "\n";
    os << "histogram," << name << ",mean," << num(h->mean()) << "\n";
    os << "histogram," << name << ",min," << num(h->min()) << "\n";
    os << "histogram," << name << ",max," << num(h->max()) << "\n";
    os << "histogram," << name << ",p50," << num(h->quantile(0.5)) << "\n";
    os << "histogram," << name << ",p95," << num(h->quantile(0.95)) << "\n";
    os << "histogram," << name << ",p99," << num(h->quantile(0.99)) << "\n";
  }
}

bool MetricsRegistry::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv)
    write_csv(out);
  else
    write_json(out);
  return static_cast<bool>(out);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace stellaris::obs
