#include "host_speed.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace stellaris::e2e {
namespace {

constexpr int kPasses = 5;

/// Keeps the passes' results observable, so the compiler cannot drop them.
std::atomic<float> g_sink{0.0f};

/// One pass: ordered-map churn, small heap blocks, and tanh over a short
/// vector — about 0.9 ms on the reference host.
double pass_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t s = 1;
  float acc = 0.0f;
  std::map<std::uint64_t, int> m;
  for (int r = 0; r < 2000; ++r) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    m[(s >> 40) & 1023u] = r;
    const auto it = m.find((s >> 20) & 1023u);
    if (it != m.end()) {
      acc += static_cast<float>(it->second);
      m.erase(it);
    }
  }
  for (int r = 0; r < 300; ++r) {
    std::vector<std::unique_ptr<float[]>> blocks;
    for (int a = 0; a < 24; ++a) {
      blocks.emplace_back(new float[16 + 8 * static_cast<std::size_t>(a)]);
      blocks.back()[0] = static_cast<float>(a);
    }
    for (const auto& b : blocks) acc += b[0];
  }
  float x[64];
  for (int i = 0; i < 64; ++i) x[i] = 0.03f * static_cast<float>(i) - 1.0f;
  for (int r = 0; r < 200; ++r)
    for (float& v : x) v = std::tanh(1.7f * v + 0.01f);
  g_sink.store(acc + x[3], std::memory_order_relaxed);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median_pass_seconds() {
  double t[kPasses];
  for (double& v : t) v = pass_seconds();
  std::nth_element(t, t + kPasses / 2, t + kPasses);
  return t[kPasses / 2];
}

}  // namespace

double probe_seconds(std::size_t threads) {
  std::vector<double> t(std::max<std::size_t>(threads, 1));
  std::vector<std::thread> others;
  for (std::size_t i = 1; i < t.size(); ++i)
    others.emplace_back([&t, i] { t[i] = median_pass_seconds(); });
  t[0] = median_pass_seconds();
  for (auto& th : others) th.join();
  double sum = 0.0;
  for (const double v : t) sum += v;
  return sum / static_cast<double>(t.size());
}

}  // namespace stellaris::e2e
