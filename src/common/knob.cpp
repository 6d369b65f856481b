#include "common/knob.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/logging.hpp"

namespace gt::knob {
namespace {

std::string quoted(std::string_view knob, std::string_view text) {
  return std::string(knob).append("='").append(text).append("'");
}

template <typename T>
std::string number(T v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
}

// The whole of `text` as a T in [lo, hi]; doubles must also be finite.
template <typename T>
T convert(std::string_view knob, std::string_view text, T lo, T hi,
          const char* kind) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (!text.empty() && ec == std::errc() && ptr == last &&
      std::isfinite(static_cast<double>(v)) && lo <= v && v <= hi)
    return v;
  std::string what = quoted(knob, text) + " is not a " + kind;
  if (hi < std::numeric_limits<T>::max())
    what += " in [" + number(lo) + ", " + number(hi) + "]";
  else if (lo > std::numeric_limits<T>::lowest())
    what += " >= " + number(lo);
  throw Error(what);
}

bool is_flag(std::string_view name) { return name.size() > 1 && name[0] == '-'; }
bool is_env(std::string_view name) { return name.starts_with("GT_"); }

std::vector<std::string_view> split_commas(std::string_view text) {
  std::vector<std::string_view> out;
  for (std::size_t comma; (comma = text.find(',')) != std::string_view::npos;) {
    out.push_back(text.substr(0, comma));
    text.remove_prefix(comma + 1);
  }
  out.push_back(text);
  return out;
}

}  // namespace

std::uint64_t to_uint(std::string_view knob, std::string_view text,
                      std::uint64_t lo, std::uint64_t hi) {
  return convert(knob, text, lo, hi, "whole number");
}

double to_double(std::string_view knob, std::string_view text, double lo,
                 double hi) {
  return convert(knob, text, lo, hi, "finite number");
}

std::size_t to_choice(std::string_view knob, std::string_view text,
                      const std::vector<std::string_view>& choices) {
  std::string set;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (text == choices[i]) return i;
    set.append(i > 0 ? "|" : "").append(choices[i]);
  }
  throw Error(quoted(knob, text) + " is not one of " + set);
}

std::optional<std::string_view> env(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return v;
}

Setter into(std::vector<double>& dst, double lo, double hi) {
  return [&dst, lo, hi](std::string_view knob, std::string_view text) {
    dst.clear();
    for (const std::string_view item : split_commas(text))
      dst.push_back(to_double(knob, item, lo, hi));
  };
}

Setter into(std::vector<std::string>& dst, std::vector<std::string_view> choices) {
  return [&dst, choices](std::string_view knob, std::string_view text) {
    dst.clear();
    for (const std::string_view item : split_commas(text))
      dst.emplace_back(choices[to_choice(knob, item, choices)]);
  };
}

void Cli::parse(int argc, const char* const* argv) const {
  (void)log_level();  // reads GT_LOG_LEVEL, so a bad value stops us here too
  std::vector<const Arg*> bare;
  for (const Arg& a : args_) {
    if (!is_env(a.name)) {
      if (!is_flag(a.name)) bare.push_back(&a);
    } else if (const auto v = env(a.name.c_str())) {
      a.set(a.name, *v);
    }
  }
  std::size_t next = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (!is_flag(token)) {
      if (next == bare.size()) throw Error("unexpected argument '" + token + "'");
      bare[next]->set(bare[next]->name, token);
      ++next;
      continue;
    }
    const auto flag = std::find_if(args_.begin(), args_.end(),
                                   [&](const Arg& a) { return a.name == token; });
    if (flag == args_.end()) throw Error("unknown flag '" + token + "'");
    if (flag->metavar.empty()) {
      flag->set(token, {});
    } else if (i + 1 == argc) {
      throw Error(token + " needs a value " + flag->metavar);
    } else {
      flag->set(token, argv[++i]);
    }
  }
  for (; next < bare.size(); ++next)
    if (bare[next]->required) throw Error("missing " + bare[next]->name);
}

void Cli::parse_or_exit(int argc, const char* const* argv) const {
  try {
    parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

void Cli::fail(std::string_view message) const {
  std::fprintf(stderr, "%s: %.*s\n%s", program_.c_str(),
               static_cast<int>(message.size()), message.data(), usage().c_str());
  std::exit(2);
}

std::string Cli::usage() const {
  std::string out = "usage: " + program_, vars;
  for (const Arg& a : args_) {
    if (is_env(a.name))
      vars.append(" ").append(a.name);
    else if (a.required)
      out += " " + a.name;
    else
      out += " [" + a.name + (a.metavar.empty() ? "" : " " + a.metavar) + "]";
  }
  return out + "\n" + (vars.empty() ? "" : "environment:" + vars + "\n");
}

}  // namespace gt::knob
