// Run-ledger unit tests: event rendering round-trips through a JSON
// parser, doubles keep full precision, hostile strings stay valid JSON,
// and the recorder preserves emission order.
#include "obs/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/mini_json.hpp"

namespace stellaris::obs {
namespace {

minijson::Value parse_line(const std::string& line) {
  return minijson::parse(line);
}

TEST(LedgerEvent, MinimalEventHasEnvelope) {
  const std::string line = LedgerEvent("traj", 1.25).finish();
  const minijson::Value v = parse_line(line);
  EXPECT_EQ(v.at("ev").string(), "traj");
  EXPECT_DOUBLE_EQ(v.at("t").number(), 1.25);
  EXPECT_TRUE(v.has("run"));
}

TEST(LedgerEvent, FieldTypesRoundTrip) {
  const std::string line = LedgerEvent("x", 0.0)
                               .field("i", 42)
                               .field("u", std::uint64_t{9007199254740993ull})
                               .field("d", 0.1)
                               .field("b", true)
                               .field("s", "hello")
                               .finish();
  const minijson::Value v = parse_line(line);
  EXPECT_DOUBLE_EQ(v.at("i").number(), 42.0);
  // Integers render via to_string, not %.17g — no precision loss at 2^53+1
  // in the text (the parser's double can't hold it; check the raw text).
  EXPECT_NE(line.find("\"u\":9007199254740993"), std::string::npos);
  EXPECT_DOUBLE_EQ(v.at("d").number(), 0.1);
  EXPECT_EQ(v.at("b").kind, minijson::Value::Kind::kBool);
  EXPECT_EQ(v.at("s").string(), "hello");
}

TEST(LedgerEvent, DoublesRenderRoundTrip) {
  // %.17g must reproduce the exact bits on re-parse.
  const double tricky = 0.1 + 0.2;  // 0.30000000000000004
  const std::string line =
      LedgerEvent("x", tricky).field("v", tricky).finish();
  const minijson::Value v = parse_line(line);
  EXPECT_EQ(v.at("t").number(), tricky);
  EXPECT_EQ(v.at("v").number(), tricky);
}

TEST(LedgerEvent, NonFiniteRendersNull) {
  const std::string line =
      LedgerEvent("x", 0.0)
          .field("inf", std::numeric_limits<double>::infinity())
          .field("nan", std::numeric_limits<double>::quiet_NaN())
          .finish();
  const minijson::Value v = parse_line(line);
  EXPECT_EQ(v.at("inf").kind, minijson::Value::Kind::kNull);
  EXPECT_EQ(v.at("nan").kind, minijson::Value::Kind::kNull);
}

TEST(LedgerEvent, HostileStringsStayValidJson) {
  const std::string hostile = "quote\" slash\\ newline\n tab\t ctl\x01";
  const std::string line =
      LedgerEvent("x", 0.0).field("msg", hostile).finish();
  const minijson::Value v = parse_line(line);  // parse must not throw
  EXPECT_EQ(v.at("msg").string(), hostile);
  // JSONL: the escaped line must stay on one line.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(LedgerEvent, RawArraysRoundTrip) {
  const std::string line =
      LedgerEvent("agg_end", 2.0)
          .raw("staleness", render_number_array({0.0, 1.5, 3.0}))
          .raw("group", render_id_array({7, 8}))
          .finish();
  const minijson::Value v = parse_line(line);
  ASSERT_TRUE(v.at("staleness").kind == minijson::Value::Kind::kArray);
  EXPECT_DOUBLE_EQ(v.at("staleness").arr[1].number(), 1.5);
  ASSERT_TRUE(v.at("group").kind == minijson::Value::Kind::kArray);
  EXPECT_DOUBLE_EQ(v.at("group").arr[0].number(), 7.0);
  EXPECT_DOUBLE_EQ(v.at("group").arr[1].number(), 8.0);
}

TEST(LedgerRecorder, PreservesEmissionOrder) {
  LedgerRecorder rec;
  for (int i = 0; i < 10; ++i)
    rec.append(LedgerEvent("e", static_cast<double>(i))
                   .field("i", i)
                   .finish());
  EXPECT_EQ(rec.size(), 10u);
  const auto lines = rec.lines();
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(parse_line(lines[i]).at("i").number(),
                     static_cast<double>(i));
}

TEST(LedgerRecorder, WriteEmitsJsonl) {
  LedgerRecorder rec;
  rec.append(LedgerEvent("a", 0.0).finish());
  rec.append(LedgerEvent("b", 1.0).finish());
  std::ostringstream os;
  rec.write(os);
  const std::string text = os.str();
  // Two newline-terminated lines, each valid JSON.
  std::istringstream is(text);
  std::string line;
  std::size_t n = 0;
  while (std::getline(is, line)) {
    EXPECT_NO_THROW(parse_line(line));
    ++n;
  }
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(text.back(), '\n');
}

TEST(LedgerRecorder, WriteFileRoundTrips) {
  LedgerRecorder rec;
  rec.append(LedgerEvent("a", 0.5).field("k", 1).finish());
  const std::string path = "ledger_test_tmp.jsonl";
  ASSERT_TRUE(rec.write_file(path));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(parse_line(line).at("ev").string(), "a");
}

TEST(LedgerRecorder, ConcurrentAppendsAreAllKept) {
  LedgerRecorder rec;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&rec, w] {
      for (int i = 0; i < kPerThread; ++i)
        rec.append(LedgerEvent("e", static_cast<double>(i))
                       .field("w", w)
                       .finish());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& line : rec.lines()) EXPECT_NO_THROW(parse_line(line));
}

TEST(Ledger, InstallLedgerTogglesGlobalPointer) {
  LedgerRecorder rec;
  EXPECT_EQ(obs::ledger(), nullptr);
  obs::install_ledger(&rec);
  EXPECT_EQ(obs::ledger(), &rec);
  obs::install_ledger(nullptr);
  EXPECT_EQ(obs::ledger(), nullptr);
}

}  // namespace
}  // namespace stellaris::obs
