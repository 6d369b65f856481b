// Strict knobs: the one place where GT_* environment variables and the
// command-line flags of the benches, tools and examples become values.
// A conversion takes the whole string and a closed [lo, hi]: a whole number
// is decimal digits only, a double must be finite. A failure throws
// knob::Error naming the knob and quoting the value.
//
// Cli is a binary's table of knobs; a row's name says what it is: "--flag"
// takes the next argument (a "--switch", with no metavar, takes none),
// "GT_NAME" is an environment variable (unset or empty keeps the default),
// any other name is the next bare argument. parse() reads the variables,
// then argv, so a flag overrides its variable. parse_or_exit() prints the
// error and the usage generated from the table and exits 2, before any work.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gt::knob {

struct Error : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Upper bound of every worker-thread knob (GT_THREADS, --threads).
inline constexpr std::size_t kMaxThreads = 1024;
inline constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();
inline constexpr double kMaxDouble = std::numeric_limits<double>::max();

std::uint64_t to_uint(std::string_view knob, std::string_view text,
                      std::uint64_t lo = 0, std::uint64_t hi = kNoMax);
double to_double(std::string_view knob, std::string_view text,
                 double lo = -kMaxDouble, double hi = kMaxDouble);
/// Index of `text` in the closed set `choices`.
std::size_t to_choice(std::string_view knob, std::string_view text,
                      const std::vector<std::string_view>& choices);

/// The variable's value; nullopt when it is unset or empty.
std::optional<std::string_view> env(const char* name);

/// Stores one knob's text into its destination; throws Error.
using Setter = std::function<void(std::string_view knob, std::string_view text)>;

/// An unsigned destination's own type caps `hi`: a port refuses 70000.
template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
Setter into(T& dst, std::uint64_t lo = 0, std::uint64_t hi = kNoMax) {
  hi = std::min<std::uint64_t>(hi, std::numeric_limits<T>::max());
  return [&dst, lo, hi](std::string_view knob, std::string_view text) {
    dst = static_cast<T>(to_uint(knob, text, lo, hi));
  };
}
inline Setter into(double& dst, double lo = -kMaxDouble, double hi = kMaxDouble) {
  return [&dst, lo, hi](std::string_view knob, std::string_view text) {
    dst = to_double(knob, text, lo, hi);
  };
}
/// A switch sets it; as a value, a whole number with non-zero = on.
inline Setter into(bool& dst) {
  return [&dst](std::string_view knob, std::string_view text) {
    dst = text.empty() || to_uint(knob, text) != 0;
  };
}
inline Setter into(std::string& dst) {
  return [&dst](std::string_view, std::string_view text) { dst = text; };
}
/// Comma-separated lists: every element strict, none empty.
Setter into(std::vector<double>& dst, double lo, double hi);
Setter into(std::vector<std::string>& dst, std::vector<std::string_view> choices);

struct Arg {
  std::string name;     ///< "--flag", "GT_NAME", or a bare argument's placeholder
  std::string metavar;  ///< a flag's value placeholder; empty for a switch
  Setter set;           ///< a switch's is called with empty text
  bool required = false;  ///< bare arguments only
};

class Cli {
 public:
  Cli(std::string program, std::vector<Arg> args)
      : program_(std::move(program)), args_(std::move(args)) {}

  /// Validates GT_LOG_LEVEL, then reads the table's variables and argv.
  /// Throws std::invalid_argument on the first bad knob.
  void parse(int argc, const char* const* argv) const;
  void parse_or_exit(int argc, const char* const* argv) const;
  /// Prints "program: message" and the usage, exits 2 (cross-knob checks).
  [[noreturn]] void fail(std::string_view message) const;
  std::string usage() const;

 private:
  std::string program_;
  std::vector<Arg> args_;
};

}  // namespace gt::knob
