#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/mini_json.hpp"
#include "obs/obs.hpp"

namespace stellaris::obs {
namespace {

std::string dump(const TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_json(os);
  return os.str();
}

minijson::Value events_of(const TraceRecorder& rec) {
  minijson::Value root = minijson::parse(dump(rec));
  EXPECT_TRUE(root.is_object());
  const minijson::Value& evs = root.at("traceEvents");
  EXPECT_TRUE(evs.kind == minijson::Value::Kind::kArray);
  return evs;
}

TEST(Trace, EmptyRecorderIsValidJson) {
  TraceRecorder rec;
  const minijson::Value evs = events_of(rec);
  // Only the process_name metadata event.
  ASSERT_EQ(evs.arr.size(), 1u);
  EXPECT_EQ(evs.arr[0].at("ph").string(), "M");
}

TEST(Trace, TrackIsIdempotentAndNamed) {
  TraceRecorder rec;
  const TrackId a = rec.track("actors/0");
  const TrackId b = rec.track("learners/0");
  EXPECT_EQ(rec.track("actors/0"), a);
  EXPECT_NE(a, b);

  const minijson::Value evs = events_of(rec);
  std::size_t thread_names = 0;
  for (const auto& ev : evs.arr) {
    if (ev.at("ph").string() != "M" ||
        ev.at("name").string() != "thread_name")
      continue;
    ++thread_names;
    const std::string& label = ev.at("args").at("name").string();
    EXPECT_TRUE(label == "actors/0" || label == "learners/0");
  }
  EXPECT_EQ(thread_names, 2u);  // re-registration emits no duplicate
}

TEST(Trace, CompleteSpanCarriesMicrosecondTimes) {
  TraceRecorder rec;
  const TrackId t = rec.track("trainer");
  rec.complete(t, "round", "trainer", 1.25, 2.5,
               {{"round", 3}, {"kl", 0.0125}, {"env", "Hopper"}});
  const minijson::Value evs = events_of(rec);
  const minijson::Value* span = nullptr;
  for (const auto& ev : evs.arr)
    if (ev.at("ph").string() == "X") span = &ev;
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->at("name").string(), "round");
  EXPECT_EQ(span->at("cat").string(), "trainer");
  EXPECT_DOUBLE_EQ(span->at("ts").number(), 1.25e6);
  EXPECT_DOUBLE_EQ(span->at("dur").number(), 1.25e6);
  EXPECT_DOUBLE_EQ(span->at("args").at("round").number(), 3.0);
  EXPECT_NEAR(span->at("args").at("kl").number(), 0.0125, 1e-12);
  EXPECT_EQ(span->at("args").at("env").string(), "Hopper");
}

TEST(Trace, InstantAndCounterEvents) {
  TraceRecorder rec;
  const TrackId t = rec.track("trainer");
  rec.instant(t, "grad_enqueued", "trainer", 0.5, {{"learner_id", 7}});
  rec.counter("queue_depth", 0.5, 4.0);
  const minijson::Value evs = events_of(rec);
  bool saw_instant = false, saw_counter = false;
  for (const auto& ev : evs.arr) {
    if (ev.at("ph").string() == "i") {
      saw_instant = true;
      EXPECT_EQ(ev.at("s").string(), "t");
      EXPECT_EQ(ev.at("name").string(), "grad_enqueued");
    }
    if (ev.at("ph").string() == "C") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(ev.at("args").at("value").number(), 4.0);
    }
  }
  EXPECT_TRUE(saw_instant);
  EXPECT_TRUE(saw_counter);
}

TEST(Trace, EscapesHostileStrings) {
  TraceRecorder rec;
  const std::string hostile = "quote\" slash\\ newline\n tab\t ctl\x01";
  const TrackId t = rec.track(hostile);
  rec.complete(t, hostile, "cat", 0.0, 1.0, {{"msg", hostile}});
  const minijson::Value evs = events_of(rec);  // parse must not throw
  bool found = false;
  for (const auto& ev : evs.arr)
    if (ev.at("ph").string() == "X") {
      found = true;
      EXPECT_EQ(ev.at("name").string(), hostile);
      EXPECT_EQ(ev.at("args").at("msg").string(), hostile);
    }
  EXPECT_TRUE(found);
}

TEST(Trace, NonFiniteArgsStayValidJson) {
  TraceRecorder rec;
  rec.complete(rec.track("t"), "span", "cat", 0.0, 1.0,
               {{"inf", std::numeric_limits<double>::infinity()},
                {"nan", std::numeric_limits<double>::quiet_NaN()}});
  const minijson::Value evs = events_of(rec);
  for (const auto& ev : evs.arr)
    if (ev.at("ph").string() == "X") {
      EXPECT_EQ(ev.at("args").at("inf").kind, minijson::Value::Kind::kNull);
      EXPECT_EQ(ev.at("args").at("nan").kind, minijson::Value::Kind::kNull);
    }
}

TEST(Trace, ConcurrentEmittersProduceValidJson) {
  TraceRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&rec, w] {
      const TrackId tid =
          rec.track("worker/" + std::to_string(w));
      for (int i = 0; i < kSpansPerThread; ++i) {
        const double t0 = static_cast<double>(i);
        rec.complete(tid, "span_" + std::to_string(i), "stress", t0,
                     t0 + 0.5, {{"worker", w}, {"i", i}});
        if (i % 16 == 0) rec.instant(tid, "mark", "stress", t0);
        if (i % 32 == 0)
          rec.counter("depth/" + std::to_string(w), t0,
                      static_cast<double>(i));
      }
    });
  }
  for (auto& t : threads) t.join();

  const minijson::Value evs = events_of(rec);  // parse IS the validity check
  std::size_t spans = 0;
  for (const auto& ev : evs.arr) {
    // Every event is complete: required keys present and typed.
    EXPECT_TRUE(ev.has("ph"));
    EXPECT_TRUE(ev.has("name"));
    if (ev.at("ph").string() == "X") {
      ++spans;
      EXPECT_GE(ev.at("dur").number(), 0.0);
      EXPECT_GE(ev.at("ts").number(), 0.0);
    }
  }
  EXPECT_EQ(spans, static_cast<std::size_t>(kThreads * kSpansPerThread));
}

TEST(Trace, ScopedSpanEmitsOnDestruction) {
  TraceRecorder rec;
  double now = 1.0;
  {
    ScopedSpan span(&rec, rec.track("t"), "work", "cat",
                    [&now] { return now; });
    now = 3.5;
    span.arg({"result", 42});
  }
  const minijson::Value evs = events_of(rec);
  bool found = false;
  for (const auto& ev : evs.arr)
    if (ev.at("ph").string() == "X") {
      found = true;
      EXPECT_DOUBLE_EQ(ev.at("ts").number(), 1.0e6);
      EXPECT_DOUBLE_EQ(ev.at("dur").number(), 2.5e6);
      EXPECT_DOUBLE_EQ(ev.at("args").at("result").number(), 42.0);
    }
  EXPECT_TRUE(found);
}

TEST(Trace, ScopedSpanWithNullRecorderIsNoop) {
  ScopedSpan span(nullptr, 0, "work", "cat", [] { return 0.0; });
  span.arg({"k", 1});
  // Destruction must not crash; nothing to assert beyond that.
}

TEST(Trace, WriteFileRoundTrips) {
  TraceRecorder rec;
  rec.complete(rec.track("t"), "span", "cat", 0.0, 1.0);
  const std::string path = "trace_test_tmp.json";
  ASSERT_TRUE(rec.write_file(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  const minijson::Value root = minijson::parse(ss.str());
  EXPECT_TRUE(root.at("traceEvents").kind ==
              minijson::Value::Kind::kArray);
}

TEST(Trace, RunTagsAreDistinct) {
  obs::begin_run();
  const std::string a = obs::run_tag();
  obs::begin_run();
  const std::string b = obs::run_tag();
  EXPECT_NE(a, b);
}

TEST(Trace, InstallTraceTogglesGlobalPointer) {
  TraceRecorder rec;
  EXPECT_EQ(obs::trace(), nullptr);
  obs::install_trace(&rec);
  EXPECT_EQ(obs::trace(), &rec);
  obs::install_trace(nullptr);
  EXPECT_EQ(obs::trace(), nullptr);
}

}  // namespace
}  // namespace stellaris::obs
