#include "serve/policy_store.hpp"

#include "core/policy_io.hpp"
#include "obs/obs.hpp"

namespace stellaris::serve {

namespace keys {
std::string policy(const std::string& tenant, std::uint64_t version) {
  return "serve/" + tenant + "/policy/v" + std::to_string(version);
}
}  // namespace keys

PolicyStore::PolicyStore(cache::DistributedCache& cache)
    : cache_(cache),
      m_decodes_(&obs::metrics().counter("serve.policy_decodes")),
      m_reuses_(&obs::metrics().counter("serve.policy_reuses")) {}

void PolicyStore::publish(const std::string& tenant,
                          const std::vector<float>& params,
                          std::uint64_t version, double cost_mult) {
  const std::string key = keys::policy(tenant, version);
  cache_.put(key, core::encode_policy(params, version));
  // A republish (same key, new cache entry version) must re-decode AND may
  // carry a new multiplier; forgetting the stale snapshot covers both.
  auto it = decoded_.find(key);
  if (it != decoded_.end()) decoded_.erase(it);
  decoded_[key].cost_mult = cost_mult;
}

PolicyStore::Loaded PolicyStore::load(const std::string& key) {
  const cache::CacheValue value = cache_.get_or_throw(key);
  Decoded& slot = decoded_[key];
  if (slot.snap && slot.cache_version == value.version) {
    ++reuses_;
    m_reuses_->add();
    return {slot.snap, slot.cost_mult};
  }
  auto snap = std::make_shared<PolicySnapshot>();
  snap->version = core::decode_policy_into(value.bytes(), snap->params);
  slot.snap = std::move(snap);
  slot.cache_version = value.version;
  ++decodes_;
  m_decodes_->add();
  return {slot.snap, slot.cost_mult};
}

}  // namespace stellaris::serve
