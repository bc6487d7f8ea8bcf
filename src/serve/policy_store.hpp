// Versioned, immutable policy snapshots for the serving tier.
//
// The trainer publishes `serve/<tenant>/policy/v<N>` entries into the
// distributed cache (same wire format as training's policy/latest:
// core::encode_policy). The store reads them through PR 5's zero-copy path
// and keeps one DECODED snapshot per (tenant, version): the cache hands
// back a refcounted byte view, the store decodes it once, and every batch
// that serves that version shares the same immutable PolicySnapshot — a
// served version is decoded once per publication, not once per request.
//
// Engine-thread only (loads happen in the capture section of a dispatch;
// bodies receive a PolicyRef and never touch the store), so no mutex.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/distributed_cache.hpp"
#include "obs/metrics.hpp"

namespace stellaris::serve {

/// Immutable decoded policy weights. Shared by reference between the store
/// and any number of in-flight bodies; never mutated after decode.
struct PolicySnapshot {
  std::vector<float> params;
  std::uint64_t version = 0;
};
using PolicyRef = std::shared_ptr<const PolicySnapshot>;

namespace keys {
/// "serve/<tenant>/policy/v<version>"
std::string policy(const std::string& tenant, std::uint64_t version);
}  // namespace keys

class PolicyStore {
 public:
  explicit PolicyStore(cache::DistributedCache& cache);

  /// Publish `params` as `version` of `tenant`'s policy. `cost_mult`
  /// scales the serving compute of this version (a canary that is really a
  /// heavier architecture behind the same API — the knob the rollback
  /// scenarios turn).
  void publish(const std::string& tenant, const std::vector<float>& params,
               std::uint64_t version, double cost_mult = 1.0);

  /// A loaded version: its decoded snapshot and its serving-compute
  /// multiplier (1.0 unless published with another).
  struct Loaded {
    PolicyRef snap;
    double cost_mult = 1.0;
  };

  /// The version behind cache key `key` (keys::policy). Reads the cache
  /// entry on every call (the cache's hit and byte counters see each
  /// load), decodes on first load and whenever the entry was republished,
  /// and otherwise reuses the shared snapshot. Throws cache::CacheError if
  /// the key was never published. Callers build `key` once per version.
  Loaded load(const std::string& key);

  std::uint64_t decodes() const { return decodes_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  struct Decoded {
    PolicyRef snap;
    std::uint64_t cache_version = 0;  ///< cache entry version at decode
    double cost_mult = 1.0;
  };

  cache::DistributedCache& cache_;
  std::map<std::string, Decoded> decoded_;  ///< by cache key
  std::uint64_t decodes_ = 0;
  std::uint64_t reuses_ = 0;
  obs::Counter* m_decodes_;
  obs::Counter* m_reuses_;
};

}  // namespace stellaris::serve
