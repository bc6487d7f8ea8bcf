// Minimal leveled logger.
//
// Thread-safe (one mutex around the sink), with a process-wide level so the
// benchmark harness can silence training chatter. Messages are composed via
// streaming into a temporary, so disabled levels cost a branch.
//
// Each line is prefixed with an ISO-8601 UTC timestamp and the level tag:
//   [2026-08-06T12:34:56.789Z] [INFO] message
// The initial level comes from the STELLARIS_LOG_LEVEL environment variable
// (debug | info | warn | error | off, or the numeric values 0-4), read once
// at first use; set_level() overrides it afterwards.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/annotated_mutex.hpp"

namespace stellaris {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Parse a level name ("debug", "info", "warn"/"warning", "error",
/// "off"/"none", case-insensitive, or a digit 0-4); nullopt on anything
/// else.
std::optional<LogLevel> try_parse_log_level(std::string_view s);

/// Current wall clock as "2026-08-06T12:34:56.789Z".
std::string log_timestamp();

/// Global log configuration. Defaults to kInfo on stderr, overridable via
/// STELLARIS_LOG_LEVEL.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) EXCLUDES(mu_);
  LogLevel level() const EXCLUDES(mu_);

  /// Emit a pre-formatted line at `level` (no-op below threshold).
  void write(LogLevel level, const std::string& msg) EXCLUDES(mu_);

 private:
  Logger();
  // Terminal leaf of the lock hierarchy: every subsystem may log while
  // holding its own lock, so nothing may be acquired while this is held.
  mutable Mutex mu_{"util/logger", lock_rank::kLogger};
  LogLevel level_ GUARDED_BY(mu_) = LogLevel::kInfo;
};

namespace detail {
/// RAII line builder: streams into a buffer, flushes on destruction.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { Logger::instance().write(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace stellaris

// The empty-then/else shape makes the macro a *complete* if-else, so a
// user's `else` after `if (x) LOG_INFO << ...;` binds to their own `if`
// instead of silently attaching to the macro's level check.
#define STELLARIS_LOG(severity)                                   \
  if (static_cast<int>(::stellaris::Logger::instance().level()) > \
      static_cast<int>(::stellaris::LogLevel::severity)) {        \
  } else                                                          \
    ::stellaris::detail::LogLine(::stellaris::LogLevel::severity)

#define LOG_DEBUG STELLARIS_LOG(kDebug)
#define LOG_INFO STELLARIS_LOG(kInfo)
#define LOG_WARN STELLARIS_LOG(kWarn)
#define LOG_ERROR STELLARIS_LOG(kError)
