#include "common/logging.hpp"

#include <atomic>
#include <cstdio>

#include "common/knob.hpp"

namespace gt {
namespace {

LogLevel parse_level_env() {
  // The names in LogLevel order, so the index is the level.
  const auto v = knob::env("GT_LOG_LEVEL");
  if (!v) return LogLevel::kOff;
  return static_cast<LogLevel>(knob::to_choice(
      "GT_LOG_LEVEL", *v, {"debug", "info", "warn", "error", "off"}));
}

std::atomic<int>& level_storage() {
  static std::atomic<int> level{static_cast<int>(parse_level_env())};
  return level;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    default: return "?";
  }
}

}  // namespace

LogLevel log_level() { return static_cast<LogLevel>(level_storage().load(std::memory_order_relaxed)); }

void set_log_level(LogLevel level) {
  level_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_line(LogLevel level, const std::string& msg) {
  if (level < log_level()) return;
  std::fprintf(stderr, "[%s] %s\n", level_name(level), msg.c_str());
}

}  // namespace gt
