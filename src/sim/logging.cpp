#include "sim/logging.hpp"

#include <cstdarg>

namespace clove::sim {

LogLevel parse_log_level(const std::string& text, LogLevel fallback) {
  if (text == "none" || text == "0") return LogLevel::kNone;
  if (text == "error" || text == "1") return LogLevel::kError;
  if (text == "warn" || text == "warning" || text == "2") return LogLevel::kWarn;
  if (text == "info" || text == "3") return LogLevel::kInfo;
  if (text == "trace" || text == "debug" || text == "4") return LogLevel::kTrace;
  return fallback;
}

LogLevel& log_level() {
  static LogLevel level = LogLevel::kWarn;
  return level;
}

namespace detail {

void vlog(LogLevel lvl, Time now, const char* tag, const char* fmt, ...) {
  const char* name = "?";
  switch (lvl) {
    case LogLevel::kError: name = "E"; break;
    case LogLevel::kWarn: name = "W"; break;
    case LogLevel::kInfo: name = "I"; break;
    case LogLevel::kTrace: name = "T"; break;
    case LogLevel::kNone: return;
  }
  std::fprintf(stderr, "[%s %12s %-12s] ", name, format_time(now).c_str(), tag);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

}  // namespace detail
}  // namespace clove::sim
