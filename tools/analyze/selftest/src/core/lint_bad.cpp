// Failing lint cases: every snippet the rules must flag, one per line.
// Path-scoped rules live in src/serve/ and src/sim/*driver* next door.
#include <mutex>  // expect: raw-mutex

namespace stellaris {

void randomness() {
  std::random_device rd;  // expect: randomness
  std::mt19937 gen(42);  // expect: randomness
  srand(7);  // expect: randomness
  int x = rand();  // expect: randomness
}

void wall_clock() {
  auto a = std::chrono::steady_clock::now();  // expect: wall-clock
  auto b = std::chrono::system_clock::now();  // expect: wall-clock
  using clk = std::chrono::high_resolution_clock;  // expect: wall-clock
}

void raw_threads() {
  std::thread t([] {});  // expect: raw-thread
  std::jthread j([] {});  // expect: raw-thread
}

void raw_mutexes() {
  std::mutex mu;  // expect: raw-mutex
  std::condition_variable cv;  // expect: raw-mutex
  std::lock_guard<std::mutex> lock(mu);  // expect: raw-mutex
  std::shared_lock lk(mu);  // expect: raw-mutex
}

std::unordered_map<std::string, int> m;  // expect: unordered

void shard_walks() {
  for (const auto& s : shards_) {  // expect: shard-iter
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {  // expect: shard-iter
  }
  // A header split across lines is still one `for (...)` header.
  // expect: shard-iter
  for (const auto& s :
       shards_) {
  }
}

}  // namespace stellaris
