#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace stellaris {
namespace {

TEST(Logging, ParseLevelNames) {
  EXPECT_EQ(try_parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(try_parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(try_parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(try_parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(try_parse_log_level("none"), LogLevel::kOff);
}

TEST(Logging, ParseLevelIsCaseInsensitive) {
  EXPECT_EQ(try_parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(try_parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("ERROR"), LogLevel::kError);
}

TEST(Logging, ParseLevelDigits) {
  EXPECT_EQ(try_parse_log_level("0"), LogLevel::kDebug);
  EXPECT_EQ(try_parse_log_level("1"), LogLevel::kInfo);
  EXPECT_EQ(try_parse_log_level("2"), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("3"), LogLevel::kError);
  EXPECT_EQ(try_parse_log_level("4"), LogLevel::kOff);
}

TEST(Logging, ParseLevelFallsBackOnGarbage) {
  // Unrecognized input yields no level, so the caller's default stands.
  EXPECT_EQ(try_parse_log_level("").value_or(LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("verbose").value_or(LogLevel::kInfo),
            LogLevel::kInfo);
  EXPECT_EQ(try_parse_log_level("42").value_or(LogLevel::kError),
            LogLevel::kError);
}

TEST(Logging, TryParseDistinguishesUnknownFromKnown) {
  // try_parse is what the logger uses at startup to decide whether to warn
  // about a misspelled STELLARIS_LOG_LEVEL instead of silently defaulting.
  EXPECT_EQ(try_parse_log_level("WARNING"), LogLevel::kWarn);
  EXPECT_EQ(try_parse_log_level("Off"), LogLevel::kOff);
  EXPECT_EQ(try_parse_log_level("3"), LogLevel::kError);
  EXPECT_FALSE(try_parse_log_level("").has_value());
  EXPECT_FALSE(try_parse_log_level("verbose").has_value());
  EXPECT_FALSE(try_parse_log_level("infos").has_value());
  EXPECT_FALSE(try_parse_log_level("5").has_value());
  EXPECT_FALSE(try_parse_log_level(" info").has_value());
}

TEST(Logging, TimestampIsIso8601Utc) {
  const std::string ts = log_timestamp();
  // "2026-08-06T12:34:56.789Z" — fixed-width fields, T and Z markers.
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts[23], 'Z');
  for (std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u,
                        17u, 18u, 20u, 21u, 22u})
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(ts[i])))
        << "position " << i << " in " << ts;
}

TEST(Logging, MacroIsDanglingElseSafe) {
  // `if (cond) LOG_INFO << ...; else <stmt>;` — the else must bind to the
  // user's if, not to the macro's internal level check. With a bare-if
  // macro this whole statement would be swallowed when cond is false.
  Logger& log = Logger::instance();
  const LogLevel before = log.level();
  log.set_level(LogLevel::kOff);
  bool else_ran = false;
  const bool cond = false;
  if (cond)
    LOG_INFO << "unreachable";
  else
    else_ran = true;
  EXPECT_TRUE(else_ran);
  log.set_level(before);
}

TEST(Logging, SetLevelOverridesEnvironment) {
  Logger& log = Logger::instance();
  const LogLevel before = log.level();
  log.set_level(LogLevel::kError);
  EXPECT_EQ(log.level(), LogLevel::kError);
  log.set_level(before);
}

}  // namespace
}  // namespace stellaris
