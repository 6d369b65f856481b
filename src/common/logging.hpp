// Leveled logger for simulations. Off by default so benchmark output stays
// clean; enable with GT_LOG_LEVEL=debug|info|warn|error|off or
// programmatically. Any other GT_LOG_LEVEL value is a knob error.
#pragma once

#include <sstream>
#include <string>

namespace gt {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; read strictly from GT_LOG_LEVEL on first use.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Emits one line to stderr if `level` passes the global threshold.
void log_line(LogLevel level, const std::string& msg);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, ss_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    ss_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream ss_;
};

// Voids GT_LOG's stream arm; `&` binds looser than `<<`.
struct Voidify {
  void operator&(const LogStream&) const {}
};

}  // namespace detail

// An expression, so an unbraced `if (c) GT_WARN() << x;` has no dangling
// else. The arguments are evaluated only when the level passes.
#define GT_LOG(level_enum)                       \
  (::gt::log_level() > (level_enum))             \
      ? (void)0                                  \
      : ::gt::detail::Voidify() & ::gt::detail::LogStream(level_enum)

#define GT_DEBUG() GT_LOG(::gt::LogLevel::kDebug)
#define GT_INFO() GT_LOG(::gt::LogLevel::kInfo)
#define GT_WARN() GT_LOG(::gt::LogLevel::kWarn)
#define GT_ERROR() GT_LOG(::gt::LogLevel::kError)

}  // namespace gt
