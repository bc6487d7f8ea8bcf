#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/mini_json.hpp"
#include "util/percentile.hpp"
#include "util/stats.hpp"

namespace stellaris::obs {
namespace {

TEST(Metrics, CounterBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 6u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, CounterIsThreadSafe) {
  Counter c;
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kAdds));
}

// Counters shard per thread: a thread's adds live in its own slot until it
// exits, then fold into the counter. Both halves must sum exactly.
TEST(Metrics, CounterSumsExitedAndLiveThreads) {
  Counter c;
  std::uint64_t want = 0;
  std::vector<std::thread> exited;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    exited.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) c.add(t);
    });
    want += 1000 * t;
  }
  for (auto& t : exited) t.join();
  EXPECT_EQ(c.value(), want);

  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> live;
  for (std::uint64_t t = 5; t <= 7; ++t) {
    live.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) c.add(t);
      ready.fetch_add(1);
      while (!done.load()) std::this_thread::yield();
    });
    want += 1000 * t;
  }
  c.add(11);
  want += 11;
  while (ready.load() < 3) std::this_thread::yield();
  EXPECT_EQ(c.value(), want);  // three threads still alive
  done.store(true);
  for (auto& t : live) t.join();
  EXPECT_EQ(c.value(), want);  // and folded in after they exit
}

TEST(Metrics, CounterResetCoversEveryShard) {
  Counter c;
  std::thread([&c] { c.add(5); }).join();
  std::atomic<int> step{0};
  std::thread live([&] {
    c.add(7);
    step.store(1);
    while (step.load() != 2) std::this_thread::yield();
    c.add(2);
    step.store(3);
  });
  c.add(1);
  while (step.load() != 1) std::this_thread::yield();
  EXPECT_EQ(c.value(), 13u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  step.store(2);
  while (step.load() != 3) std::this_thread::yield();
  c.add(3);
  std::thread([&c] { c.add(4); }).join();
  EXPECT_EQ(c.value(), 9u);
  live.join();
  EXPECT_EQ(c.value(), 9u);
}

// A counter built after another died may take over its slot, which still
// holds the dead counter's adds in this thread's shard; it starts at 0.
TEST(Metrics, NewCounterStartsAtZeroAfterOneDies) {
  for (int i = 0; i < 3; ++i) {
    auto dead = std::make_unique<Counter>();
    dead->add(5);
    dead.reset();
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    EXPECT_EQ(c.value(), 1u);
  }
}

TEST(Metrics, HistogramTracksExactMoments) {
  FixedHistogram h(0.0, 10.0, 20);
  RunningStat ref;
  for (double x : {1.0, 2.0, 2.0, 3.5, 7.25, 9.9}) {
    h.observe(x);
    ref.add(x);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.mean(), ref.mean());
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.9);
}

TEST(Metrics, HistogramClampsIntoEdgeBins) {
  FixedHistogram h(0.0, 10.0, 10);
  h.observe(-50.0);
  h.observe(999.0);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.count(), 2u);
  // min/max keep the exact (unclamped) values.
  EXPECT_DOUBLE_EQ(h.min(), -50.0);
  EXPECT_DOUBLE_EQ(h.max(), 999.0);
}

TEST(Metrics, HistogramQuantilesMatchPercentile) {
  // Fine bins so the bucket-interpolated quantile must land within one
  // bucket width of the exact sample percentile.
  const double lo = 0.0, hi = 100.0;
  const std::size_t bins = 1000;
  const double width = (hi - lo) / static_cast<double>(bins);
  FixedHistogram h(lo, hi, bins);
  std::vector<double> xs;
  // Deterministic skewed data (squares fold mass toward the low end), dense
  // enough that adjacent samples are closer than a bucket, so the bucket
  // interpolation must land within ~one width of the exact percentile.
  for (int i = 0; i < 5000; ++i) {
    const double u = static_cast<double>(i) / 4999.0;
    xs.push_back(100.0 * u * u);
  }
  for (double x : xs) h.observe(x);
  for (double q : {0.1, 0.25, 0.5, 0.9, 0.95, 0.99})
    EXPECT_NEAR(h.quantile(q), nearest_rank_sorted(xs, q), 2.0 * width)
        << "q=" << q;
  // Extremes clamp to the exact observed bounds.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(Metrics, EmptyHistogramIsZeroEverywhere) {
  FixedHistogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, RegistryReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hits");
  Counter& b = reg.counter("hits");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Re-registering a histogram with different bounds keeps the original.
  FixedHistogram& h1 = reg.histogram("lat", 0.0, 1.0, 10);
  FixedHistogram& h2 = reg.histogram("lat", 0.0, 99.0, 5);
  EXPECT_EQ(&h1, &h2);
  EXPECT_DOUBLE_EQ(h2.hi(), 1.0);
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("n");
  Gauge& g = reg.gauge("x");
  FixedHistogram& h = reg.histogram("h", 0.0, 1.0, 4);
  c.add(7);
  g.set(3.0);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The same references keep working after the reset.
  c.add();
  h.observe(0.25);
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(h.count(), 1u);
}

TEST(Metrics, JsonSnapshotRoundTrips) {
  MetricsRegistry reg;
  reg.counter("cache.hits").add(12);
  reg.counter("cache.misses").add(3);
  reg.gauge("queue.depth").set(4.5);
  FixedHistogram& h = reg.histogram("staleness", 0.0, 8.0, 8);
  for (double x : {0.0, 1.0, 1.0, 3.0, 7.5}) h.observe(x);

  std::ostringstream os;
  reg.write_json(os);
  const minijson::Value root = minijson::parse(os.str());

  EXPECT_DOUBLE_EQ(root.at("counters").at("cache.hits").number(), 12.0);
  EXPECT_DOUBLE_EQ(root.at("counters").at("cache.misses").number(), 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("queue.depth").number(), 4.5);

  const minijson::Value& hist = root.at("histograms").at("staleness");
  EXPECT_DOUBLE_EQ(hist.at("lo").number(), 0.0);
  EXPECT_DOUBLE_EQ(hist.at("hi").number(), 8.0);
  EXPECT_DOUBLE_EQ(hist.at("count").number(), 5.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number(), 12.5);
  EXPECT_DOUBLE_EQ(hist.at("min").number(), 0.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number(), 7.5);
  const minijson::Value& buckets = hist.at("buckets");
  ASSERT_TRUE(buckets.kind == minijson::Value::Kind::kArray);
  ASSERT_EQ(buckets.arr.size(), 8u);
  double total = 0.0;
  for (const auto& b : buckets.arr) total += b.number();
  EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Metrics, CsvSnapshotHasOneRowPerScalar) {
  MetricsRegistry reg;
  reg.counter("hits").add(2);
  reg.gauge("depth").set(1.0);
  reg.histogram("lat", 0.0, 1.0, 4).observe(0.5);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("counter,hits,value,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,depth,value,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p50,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p99,"), std::string::npos);
}

// The snapshots of counters added from exited and live threads read as
// single-slot counters always did, byte for byte.
TEST(Metrics, SnapshotsOfThreadedCountersAreExact) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a");
  Counter& b = reg.counter("b");
  a.add(3);
  std::thread([&b] { b.add(30); }).join();
  std::atomic<bool> added{false}, done{false};
  std::thread live([&] {
    b.add(10);
    added.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  while (!added.load()) std::this_thread::yield();
  std::ostringstream json, csv;
  reg.write_json(json);
  reg.write_csv(csv);
  done.store(true);
  live.join();
  EXPECT_EQ(json.str(),
            "{\n\"counters\":{\n\"a\":3,\n\"b\":40\n},\n\"gauges\":{\n},"
            "\n\"histograms\":{\n}\n}\n");
  EXPECT_EQ(csv.str(),
            "kind,name,field,value\ncounter,a,value,3\ncounter,b,value,40\n");
}

TEST(Metrics, WriteFilePicksFormatByExtension) {
  MetricsRegistry reg;
  reg.counter("n").add(1);
  const std::string json_path = "metrics_test_tmp.json";
  const std::string csv_path = "metrics_test_tmp.csv";
  ASSERT_TRUE(reg.write_file(json_path));
  ASSERT_TRUE(reg.write_file(csv_path));
  auto slurp = [](const std::string& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string json = slurp(json_path);
  const std::string csv = slurp(csv_path);
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
  EXPECT_NO_THROW(minijson::parse(json));
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
}

TEST(Metrics, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace stellaris::obs
