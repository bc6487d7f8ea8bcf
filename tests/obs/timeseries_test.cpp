// Time-series recorder tests: window alignment on the virtual clock,
// empty-window gaps staying absent (not zero-filled), export formats, and
// shard-count invariance of cache occupancy sampling.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/distributed_cache.hpp"
#include "obs/obs.hpp"
#include "util/mini_json.hpp"

namespace stellaris::obs {
namespace {

TEST(TimeSeries, WindowAlignmentOnVirtualClock) {
  TimeSeriesRecorder rec(1.0);
  // Window k covers [k, k+1): a sample exactly on the boundary lands in
  // the *next* window.
  rec.sample("q", 0.0, 1.0);
  rec.sample("q", 0.999999, 3.0);
  rec.sample("q", 1.0, 5.0);
  const auto w = rec.windows("q");
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].index, 0);
  EXPECT_EQ(w[0].count, 2u);
  EXPECT_DOUBLE_EQ(w[0].min, 1.0);
  EXPECT_DOUBLE_EQ(w[0].max, 3.0);
  EXPECT_DOUBLE_EQ(w[0].mean(), 2.0);
  EXPECT_DOUBLE_EQ(w[0].last, 3.0);
  EXPECT_EQ(w[1].index, 1);
  EXPECT_EQ(w[1].count, 1u);
  EXPECT_DOUBLE_EQ(w[1].last, 5.0);
}

TEST(TimeSeries, FractionalWindowWidth) {
  TimeSeriesRecorder rec(0.25);
  rec.sample("x", 0.30, 1.0);   // window 1: [0.25, 0.5)
  rec.sample("x", 0.499, 2.0);  // window 1
  rec.sample("x", 0.50, 3.0);   // window 2
  const auto w = rec.windows("x");
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].index, 1);
  EXPECT_EQ(w[0].count, 2u);
  EXPECT_EQ(w[1].index, 2);
}

TEST(TimeSeries, EmptyWindowsStayAbsent) {
  TimeSeriesRecorder rec(1.0);
  rec.sample("x", 0.5, 1.0);
  rec.sample("x", 7.5, 2.0);  // windows 1..6 have no samples
  const auto w = rec.windows("x");
  // Gaps are preserved as absence — a window with no samples must not
  // appear as a zero-count (or zero-valued) entry.
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].index, 0);
  EXPECT_EQ(w[1].index, 7);
  for (const auto& win : w) EXPECT_GT(win.count, 0u);
}

TEST(TimeSeries, SeriesAreIndependentAndSorted) {
  TimeSeriesRecorder rec(1.0);
  rec.sample("b", 0.0, 1.0);
  rec.sample("a", 0.0, 2.0);
  rec.sample("b", 2.0, 3.0);
  const auto names = rec.series_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(rec.windows("a").size(), 1u);
  EXPECT_EQ(rec.windows("b").size(), 2u);
  EXPECT_TRUE(rec.windows("missing").empty());
}

TEST(TimeSeries, CsvAndJsonExports) {
  TimeSeriesRecorder rec(0.5);
  rec.sample("s", 0.6, 4.0);
  std::ostringstream csv;
  rec.write_csv(csv);
  EXPECT_NE(csv.str().find("series,window,t_lo,t_hi,count,min,max,mean,last"),
            std::string::npos);
  EXPECT_NE(csv.str().find("s,1,"), std::string::npos);

  std::ostringstream json;
  rec.write_json(json);
  const minijson::Value root = minijson::parse(json.str());
  EXPECT_DOUBLE_EQ(root.at("window_s").number(), 0.5);
  const auto& series = root.at("series").at("s");
  ASSERT_TRUE(series.kind == minijson::Value::Kind::kArray);
  ASSERT_EQ(series.arr.size(), 1u);
  EXPECT_DOUBLE_EQ(series.arr[0].at("last").number(), 4.0);
}

TEST(TimeSeries, InstallTimeseriesTogglesGlobalPointer) {
  TimeSeriesRecorder rec(1.0);
  EXPECT_EQ(obs::timeseries(), nullptr);
  obs::install_timeseries(&rec);
  EXPECT_EQ(obs::timeseries(), &rec);
  obs::install_timeseries(nullptr);
  EXPECT_EQ(obs::timeseries(), nullptr);
}

// Cache occupancy sampling must be shard-count invariant: num_keys and
// resident_bytes are order-free sums over shards, so the recorded series
// must be identical no matter how the keys hash across 1, 4, or 16 shards.
TEST(TimeSeries, CacheDepthSamplingIsShardCountInvariant) {
  auto run_with_shards = [](std::size_t shards) {
    TimeSeriesRecorder rec(1.0);
    obs::install_timeseries(&rec);
    cache::DistributedCache c(shards);
    double t = 0.25;
    for (int i = 0; i < 32; ++i) {
      c.put("traj/" + std::to_string(i),
            cache::Bytes(static_cast<std::size_t>(8 * (i + 1)), 0x5a));
      c.sample_depth(t);
      t += 0.4;
    }
    obs::install_timeseries(nullptr);
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
  };
  const std::string one = run_with_shards(1);
  EXPECT_EQ(one, run_with_shards(4));
  EXPECT_EQ(one, run_with_shards(16));
  EXPECT_NE(one.find("cache.num_keys"), std::string::npos);
  EXPECT_NE(one.find("cache.resident_bytes"), std::string::npos);
}

TEST(TimeSeries, CacheDepthSamplingIsNoopWhenDisabled) {
  cache::DistributedCache c(4);
  c.put("k", cache::Bytes(16, 1));
  c.sample_depth(1.0);  // no recorder installed: must not crash
}

TEST(TimeSeries, WriteFilePicksFormatByExtension) {
  TimeSeriesRecorder rec(1.0);
  rec.sample("s", 0.1, 1.0);
  const std::string jpath = "ts_test_tmp.json";
  const std::string cpath = "ts_test_tmp.csv";
  ASSERT_TRUE(rec.write_file(jpath));
  ASSERT_TRUE(rec.write_file(cpath));
  std::ifstream jin(jpath);
  std::stringstream jss;
  jss << jin.rdbuf();
  jin.close();
  EXPECT_NO_THROW(minijson::parse(jss.str()));
  std::ifstream cin_(cpath);
  std::string header;
  std::getline(cin_, header);
  cin_.close();
  EXPECT_EQ(header, "series,window,t_lo,t_hi,count,min,max,mean,last");
  std::remove(jpath.c_str());
  std::remove(cpath.c_str());
}

}  // namespace
}  // namespace stellaris::obs
