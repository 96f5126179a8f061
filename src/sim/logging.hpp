#pragma once

#include <cstdio>
#include <string>

#include "sim/time.hpp"

namespace clove::sim {

enum class LogLevel : int { kNone = 0, kError = 1, kWarn = 2, kInfo = 3, kTrace = 4 };

/// Process-wide log verbosity for diagnostics. Default: warnings and errors;
/// binaries set it from CLOVE_LOG_LEVEL (harness::RunEnv).
/// This is deliberately a plain knob, not part of Simulator, because logging
/// is a debugging aid rather than simulated state.
LogLevel& log_level();

/// Parse a level name ("none" | "error" | "warn" | "info" | "trace", or the
/// numeric 0-4); returns `fallback` for unrecognized input.
[[nodiscard]] LogLevel parse_log_level(const std::string& text,
                                       LogLevel fallback = LogLevel::kWarn);

namespace detail {
void vlog(LogLevel lvl, Time now, const char* tag, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 4, 5)))
#endif
    ;
}  // namespace detail

#define CLOVE_LOG(lvl, now, tag, ...)                                   \
  do {                                                                  \
    if (static_cast<int>(::clove::sim::log_level()) >=                  \
        static_cast<int>(lvl)) {                                        \
      ::clove::sim::detail::vlog(lvl, (now), (tag), __VA_ARGS__);       \
    }                                                                   \
  } while (0)

#define CLOVE_WARN(now, tag, ...) \
  CLOVE_LOG(::clove::sim::LogLevel::kWarn, now, tag, __VA_ARGS__)

}  // namespace clove::sim
