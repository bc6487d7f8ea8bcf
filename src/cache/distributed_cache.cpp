#include "cache/distributed_cache.hpp"

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
  m_resident_bytes_ = &m.gauge("cache.resident_bytes");
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
  return ++entry.version;
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

void DistributedCache::clear() {
  std::size_t dropped = 0;
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — per-shard clear
    MutexLock lock(s->mu);
    dropped += s->store.size();
    s->store.clear();
    s->resident_bytes = 0;
  }
  m_resident_bytes_->set(0.0);
  if (dropped > 0) {
    LOG_DEBUG << "cache cleared (" << dropped << " keys)";
  }
}

}  // namespace stellaris::cache
