#include "util/logging.hpp"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>

namespace stellaris {

std::optional<LogLevel> try_parse_log_level(std::string_view s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s)
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (lower == "debug" || lower == "0") return LogLevel::kDebug;
  if (lower == "info" || lower == "1") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning" || lower == "2")
    return LogLevel::kWarn;
  if (lower == "error" || lower == "3") return LogLevel::kError;
  if (lower == "off" || lower == "none" || lower == "4") return LogLevel::kOff;
  return std::nullopt;
}

std::string log_timestamp() {
  using namespace std::chrono;
  const auto now = system_clock::now();
  const std::time_t t = system_clock::to_time_t(now);
  const auto ms = duration_cast<milliseconds>(now.time_since_epoch()) % 1000;
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &t);
#else
  gmtime_r(&t, &tm);
#endif
  char buf[40];
  const std::size_t len = std::strftime(buf, sizeof buf, "%FT%T", &tm);
  std::snprintf(buf + len, sizeof buf - len, ".%03dZ",
                static_cast<int>(ms.count()));
  return buf;
}

Logger::Logger() {
  if (const char* env = std::getenv("STELLARIS_LOG_LEVEL")) {
    if (const auto parsed = try_parse_log_level(env)) {
      level_ = *parsed;
    } else {
      // The logger itself is mid-construction, so warn on the sink
      // directly rather than through a LOG_WARN (which would re-enter
      // instance()). An unknown level is rejected loudly instead of
      // silently defaulting — a typo like "info " or "verbose" would
      // otherwise change logging behaviour with no breadcrumb.
      std::cerr << "[" << log_timestamp() << "] [WARN] STELLARIS_LOG_LEVEL=\""
                << env
                << "\" is not a recognized level (debug|info|warn|error|off "
                   "or 0-4); keeping default \"info\"\n";
    }
  }
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

// analyze:test-only-ok tests set the level to drive the logging macros
void Logger::set_level(LogLevel level) {
  MutexLock lock(mu_);
  level_ = level;
}

LogLevel Logger::level() const {
  MutexLock lock(mu_);
  return level_;
}

void Logger::write(LogLevel level, const std::string& msg) {
  static constexpr const char* kNames[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  const int idx = static_cast<int>(level);
  if (idx < 0 || idx > 3) return;
  const std::string ts = log_timestamp();  // format outside the lock
  MutexLock lock(mu_);
  if (static_cast<int>(level) < static_cast<int>(level_)) return;
  std::cerr << "[" << ts << "] [" << kNames[idx] << "] " << msg << '\n';
}

}  // namespace stellaris
