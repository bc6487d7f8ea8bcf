// Passing lint cases: idioms that must stay clean, including names the
// rules forbid when they appear only in strings or comments.
#include "util/annotated_mutex.hpp"

namespace stellaris {

void clean(Rng& rng, Engine& engine, std::uint64_t seed) {
  unsigned n = std::thread::hardware_concurrency();  // a query, not a thread
  Rng local(seed);
  double t = engine.now();
  auto w = std::chrono::steady_clock::now();  // analyze:wall-clock-ok
  int grand(int);  // must not trip `rand(`
  MutexLock lock(mu_);
  for (const auto& s : shards_) {  // analyze:shard-iter-ok — order-free sum
  }
  Shard& s = shard_for(key);  // single-shard access, not a walk
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // not src/serve/
  const char* doc = "std::mutex and steady_clock, inside a string";
  /* std::random_device rd; rand(); for (auto& s : shards_) */
}

// analyze:unordered-ok — lookup only
std::unordered_map<int, int> lookup;

}  // namespace stellaris
