#include "cache/distributed_cache.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace stellaris::cache {

namespace {
/// FNV-1a 64-bit. Deliberately not std::hash: the stripe a key lands on
/// must be identical on every platform/stdlib so shard-local effects (e.g.
/// contention patterns in the real driver) are reproducible.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

DistributedCache::DistributedCache(std::size_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  auto& m = obs::metrics();
  m_puts_ = &m.counter("cache.puts");
  m_gets_ = &m.counter("cache.gets");
  m_hits_ = &m.counter("cache.hits");
  m_misses_ = &m.counter("cache.misses");
  m_erases_ = &m.counter("cache.erases");
  m_bytes_written_ = &m.counter("cache.bytes_written");
  m_bytes_read_ = &m.counter("cache.bytes_read");
  m_blocked_timeouts_ = &m.counter("cache.blocked_read_timeouts");
  // Explicitly real-time (wall-clock) debug metric: how long real driver
  // threads sat in get_blocking. Never feeds back into virtual-time
  // results; see the header comment on the real-time get_blocking.
  m_blocked_wait_real_ms_ =
      &m.histogram("cache.blocked_read_wait_real_ms", 0.0, 500.0, 100);
  m_resident_bytes_ = &m.gauge("cache.resident_bytes");
  m_async_waits_ = &m.counter("cache.async_waits");
  m_async_timeouts_ = &m.counter("cache.async_timeouts");
}

DistributedCache::Shard& DistributedCache::shard_for(
    const std::string& key) const {
  return *shards_[fnv1a(key) % shards_.size()];
}

CacheValue DistributedCache::read_entry_locked(Shard& s,
                                               const Entry& entry) const {
  ++s.stats.hits;
  m_hits_->add();
  // Logical bytes "transferred" to the reader — the payload itself is
  // shared, not copied, but the metric keeps its transfer-volume meaning.
  s.stats.bytes_read += entry.data->size();
  m_bytes_read_->add(entry.data->size());
  return CacheValue{entry.data, entry.version};
}

const DistributedCache::Entry* DistributedCache::find_ready_locked(
    const Shard& s, const std::string& key, std::uint64_t min_version) {
  auto it = s.store.find(key);
  if (it == s.store.end() || it->second.version <= min_version)
    return nullptr;
  return &it->second;
}

std::uint64_t DistributedCache::put(const std::string& key, Bytes value) {
  // Wrapping moves the byte buffer into the refcounted payload — the heap
  // block the caller filled is the block every reader will alias.
  return put(key, std::make_shared<const Bytes>(std::move(value)));
}

std::uint64_t DistributedCache::put(const std::string& key, Payload value) {
  if (!value) value = std::make_shared<const Bytes>();
  Shard& s = shard_for(key);
  std::uint64_t new_version = 0;
  // Async waiters this put satisfies; their callbacks are scheduled (not
  // run) outside the lock, as fresh events at the current virtual time.
  struct Ready {
    sim::Engine* engine;
    AsyncCallback cb;
    CacheValue value;
  };
  std::vector<Ready> ready;
  {
    MutexLock lock(s.mu);
    auto& entry = s.store[key];
    const std::size_t old_size = entry.data ? entry.data->size() : 0;
    s.resident_bytes -= old_size;
    s.resident_bytes += value->size();
    s.stats.bytes_written += value->size();
    ++s.stats.puts;
    m_puts_->add();
    m_bytes_written_->add(value->size());
    m_resident_bytes_->add(static_cast<double>(value->size()) -
                           static_cast<double>(old_size));
    entry.data = std::move(value);
    new_version = ++entry.version;
    for (auto it = s.waiters.begin(); it != s.waiters.end();) {
      if (it->key == key && new_version > it->min_version) {
        if (it->deadline) *it->deadline = true;
        ready.push_back(
            {it->engine, std::move(it->cb), read_entry_locked(s, entry)});
        it = s.waiters.erase(it);
      } else {
        ++it;
      }
    }
  }
  s.cv.notify_all();
  for (auto& r : ready)
    r.engine->schedule_after(
        0.0, [cb = std::move(r.cb), v = std::move(r.value)]() mutable {
          cb(std::move(v));
        });
  return new_version;
}

std::optional<CacheValue> DistributedCache::get(const std::string& key) const {
  Shard& s = shard_for(key);
  MutexLock lock(s.mu);
  ++s.stats.gets;
  m_gets_->add();
  auto it = s.store.find(key);
  if (it == s.store.end()) {
    ++s.stats.misses;
    m_misses_->add();
    return std::nullopt;
  }
  return read_entry_locked(s, it->second);
}

CacheValue DistributedCache::get_or_throw(const std::string& key) const {
  auto v = get(key);
  if (!v) {
    LOG_ERROR << "cache miss for required key: " << key;
    throw CacheError("cache miss for required key: " + key);
  }
  return std::move(*v);
}

std::optional<CacheValue> DistributedCache::get_blocking(
    const std::string& key, std::uint64_t min_version,
    std::chrono::milliseconds timeout) {
  Shard& s = shard_for(key);
  // Real-concurrency path: this thread actually sleeps, so the wait is
  // intentionally measured against the wall clock and recorded under an
  // explicitly real-time debug metric. Nothing result-affecting depends on
  // it; the virtual-time overload below handles simulation callers.
  // analyze:wall-clock-ok — measures genuine thread blocking time
  const auto wait_begin = std::chrono::steady_clock::now();
  const auto deadline = wait_begin + timeout;
  std::optional<CacheValue> result;
  double waited_ms = 0.0;
  {
    MutexLock lock(s.mu);
    const Entry* e = find_ready_locked(s, key, min_version);
    while (e == nullptr) {
      if (s.cv.wait_until(s.mu, deadline) == std::cv_status::timeout) {
        e = find_ready_locked(s, key, min_version);  // final re-check
        break;
      }
      e = find_ready_locked(s, key, min_version);
    }
    // Real blocking time for the debug histogram.
    const auto wait_end = std::chrono::steady_clock::now();  // analyze:wall-clock-ok
    waited_ms =
        std::chrono::duration<double, std::milli>(wait_end - wait_begin)
            .count();
    m_blocked_wait_real_ms_->observe(waited_ms);
    ++s.stats.gets;
    m_gets_->add();
    if (e != nullptr) {
      result = read_entry_locked(s, *e);
    } else {
      ++s.stats.misses;
      m_misses_->add();
      m_blocked_timeouts_->add();
    }
  }
  if (!result) {
    LOG_DEBUG << "blocking read timed out after " << waited_ms
              << "ms: key=" << key << " min_version=" << min_version;
  }
  return result;
}

std::optional<CacheValue> DistributedCache::get_blocking(
    const std::string& key, std::uint64_t min_version, sim::Engine& engine,
    double timeout_s) {
  Shard& s = shard_for(key);
  MutexLock lock(s.mu);
  ++s.stats.gets;
  m_gets_->add();
  if (const Entry* e = find_ready_locked(s, key, min_version))
    return read_entry_locked(s, *e);
  // Single-threaded event loop: nothing can publish the key while we
  // "wait", so an unsatisfied read is a deterministic timeout.
  ++s.stats.misses;
  m_misses_->add();
  m_blocked_timeouts_->add();
  LOG_DEBUG << "virtual blocking read unsatisfied: key=" << key
            << " min_version=" << min_version << " (deadline would be t="
            << engine.now() + timeout_s << ")";
  return std::nullopt;
}

void DistributedCache::get_async(const std::string& key,
                                 std::uint64_t min_version,
                                 sim::Engine& engine, double timeout_s,
                                 AsyncCallback cb) {
  Shard& s = shard_for(key);
  m_async_waits_->add();
  MutexLock lock(s.mu);
  ++s.stats.gets;
  m_gets_->add();
  if (const Entry* e = find_ready_locked(s, key, min_version)) {
    CacheValue v = read_entry_locked(s, *e);
    engine.schedule_after(
        0.0, [cb = std::move(cb), v = std::move(v)]() mutable {
          cb(std::move(v));
        });
    return;
  }
  Waiter w;
  w.id = s.next_waiter_id++;
  w.key = key;
  w.min_version = min_version;
  w.engine = &engine;
  w.cb = std::move(cb);
  if (timeout_s > 0.0) {
    const std::uint64_t id = w.id;
    w.deadline = engine.schedule_cancellable_after(
        timeout_s, [this, &s, id] { expire_waiter(s, id); });
  }
  s.waiters.push_back(std::move(w));
}

void DistributedCache::expire_waiter(Shard& s, std::uint64_t id) {
  AsyncCallback cb;
  {
    MutexLock lock(s.mu);
    auto it = s.waiters.begin();
    for (; it != s.waiters.end(); ++it)
      if (it->id == id) break;
    if (it == s.waiters.end()) return;  // already satisfied or cleared
    cb = std::move(it->cb);
    ++s.stats.misses;
    m_misses_->add();
    m_async_timeouts_->add();
    LOG_DEBUG << "async cache wait timed out: key=" << it->key
              << " min_version=" << it->min_version;
    s.waiters.erase(it);
  }
  cb(std::nullopt);
}

std::size_t DistributedCache::pending_waiters() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-independent sum
    MutexLock lock(s->mu);
    n += s->waiters.size();
  }
  return n;
}

bool DistributedCache::contains(const std::string& key) const {
  Shard& s = shard_for(key);
  MutexLock lock(s.mu);
  return s.store.count(key) > 0;
}

std::uint64_t DistributedCache::version(const std::string& key) const {
  Shard& s = shard_for(key);
  MutexLock lock(s.mu);
  auto it = s.store.find(key);
  return it == s.store.end() ? 0 : it->second.version;
}

bool DistributedCache::erase(const std::string& key) {
  Shard& s = shard_for(key);
  MutexLock lock(s.mu);
  auto it = s.store.find(key);
  if (it == s.store.end()) return false;
  const std::size_t freed = it->second.data ? it->second.data->size() : 0;
  s.resident_bytes -= freed;
  ++s.stats.erases;
  m_erases_->add();
  m_resident_bytes_->add(-static_cast<double>(freed));
  s.store.erase(it);
  return true;
}

std::vector<std::string> DistributedCache::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  // analyze:shard-iter-ok — collected across shards, then sorted below
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    for (const auto& [key, entry] : s->store)
      if (key.compare(0, prefix.size(), prefix) == 0) out.push_back(key);
  }
  // Lexicographic result regardless of shard count or hash placement.
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DistributedCache::erase_prefix(const std::string& prefix) {
  std::size_t removed = 0;
  // analyze:shard-iter-ok — per-key removal; totals are order-independent
  for (const auto& s : shards_) {
    std::size_t freed = 0;
    MutexLock lock(s->mu);
    for (auto it = s->store.begin(); it != s->store.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        freed += it->second.data ? it->second.data->size() : 0;
        ++s->stats.erases;
        m_erases_->add();
        it = s->store.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    s->resident_bytes -= freed;
    m_resident_bytes_->add(-static_cast<double>(freed));
  }
  if (removed > 0) {
    LOG_DEBUG << "erased " << removed << " keys with prefix " << prefix;
  }
  return removed;
}

std::size_t DistributedCache::num_keys() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-independent sum
    MutexLock lock(s->mu);
    n += s->store.size();
  }
  return n;
}

std::size_t DistributedCache::resident_bytes() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-independent sum
    MutexLock lock(s->mu);
    n += s->resident_bytes;
  }
  return n;
}

void DistributedCache::sample_depth(double t_s) const {
  auto* ts = obs::timeseries();
  if (!ts) return;
  ts->sample("cache.num_keys", t_s, static_cast<double>(num_keys()));
  ts->sample("cache.resident_bytes", t_s,
             static_cast<double>(resident_bytes()));
}

CacheStats DistributedCache::stats() const {
  CacheStats total;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-independent sum
    MutexLock lock(s->mu);
    total.puts += s->stats.puts;
    total.gets += s->stats.gets;
    total.hits += s->stats.hits;
    total.misses += s->stats.misses;
    total.erases += s->stats.erases;
    total.bytes_written += s->stats.bytes_written;
    total.bytes_read += s->stats.bytes_read;
  }
  return total;
}

void DistributedCache::reset_stats() {
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — per-shard reset
    MutexLock lock(s->mu);
    s->stats = CacheStats{};
  }
}

void DistributedCache::clear() {
  std::size_t dropped = 0;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — per-shard clear
    MutexLock lock(s->mu);
    dropped += s->store.size();
    s->store.clear();
    s->resident_bytes = 0;
    for (auto& w : s->waiters)
      if (w.deadline) *w.deadline = true;
    s->waiters.clear();
  }
  m_resident_bytes_->set(0.0);
  if (dropped > 0) {
    LOG_DEBUG << "cache cleared (" << dropped << " keys)";
  }
}

}  // namespace stellaris::cache
