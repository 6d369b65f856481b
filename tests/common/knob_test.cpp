// Strict knob parsing: the conversion table (every rejected spelling and
// every accepted edge), the env and flag readers, and the Cli table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/knob.hpp"

namespace gt::knob {
namespace {

// The error message of `f`, or "" when it does not throw knob::Error.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Knob, WholeNumbersRejectEveryNonDigitSpelling) {
  for (const char* bad : {"", " 5", "5 ", "+3", "-1", "12abc", "0x10", "1e3",
                          "1.0", "18446744073709551616"}) {
    const std::string what = error_of([&] { to_uint("GT_X", bad); });
    EXPECT_NE(what.find("GT_X='" + std::string(bad) + "'"), std::string::npos)
        << "accepted '" << bad << "'";
  }
}

TEST(Knob, WholeNumbersAcceptTheirEdges) {
  EXPECT_EQ(to_uint("k", "0"), 0u);
  EXPECT_EQ(to_uint("k", "007"), 7u);
  EXPECT_EQ(to_uint("k", "18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(to_uint("k", "5", 5, 10), 5u);
  EXPECT_EQ(to_uint("k", "10", 5, 10), 10u);
  EXPECT_THROW(to_uint("k", "4", 5, 10), Error);
  EXPECT_THROW(to_uint("k", "11", 5, 10), Error);
  EXPECT_NE(error_of([] { to_uint("--n", "1", 2); }).find("--n='1' is not a whole number >= 2"),
            std::string::npos);
}

TEST(Knob, DoublesRejectNonFiniteAndTrailingBytes) {
  for (const char* bad : {"", "nan", "inf", "-inf", "1e400", "0.l5", " 1",
                          "1 ", "+0.5", "0x1p3", "1,5", "abc"}) {
    const std::string what = error_of([&] { to_double("--alpha", bad); });
    EXPECT_NE(what.find("--alpha='" + std::string(bad) + "' is not a finite number"),
              std::string::npos)
        << "accepted '" << bad << "': " << what;
  }
}

TEST(Knob, DoublesAcceptTheirEdges) {
  EXPECT_DOUBLE_EQ(to_double("k", "0.15", 0.0, 1.0), 0.15);
  EXPECT_DOUBLE_EQ(to_double("k", "0", 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(to_double("k", "1", 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(to_double("k", "1e-4"), 1e-4);
  EXPECT_DOUBLE_EQ(to_double("k", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(to_double("k", "-2.5"), -2.5);
  EXPECT_THROW(to_double("k", "1.0000001", 0.0, 1.0), Error);
  EXPECT_THROW(to_double("k", "-0.1", 0.0, 1.0), Error);
  EXPECT_NE(error_of([] { to_double("--alpha", "2", 0.0, 1.0); })
                .find("--alpha='2' is not a finite number in [0, 1]"),
            std::string::npos);
}

TEST(Knob, PortRangeComesFromTheDestinationType) {
  std::uint16_t port = 1;
  const Setter set = into(port);
  set("--port", "65535");
  EXPECT_EQ(port, 65535u);
  set("--port", "0");
  EXPECT_EQ(port, 0u);
  EXPECT_NE(error_of([&] { set("--port", "70000"); })
                .find("--port='70000' is not a whole number in [0, 65535]"),
            std::string::npos);
  EXPECT_EQ(port, 0u);
}

TEST(Knob, ThreadCountsStopAtTheNamedBound) {
  std::size_t threads = 1;
  const Setter set = into(threads, 0, kMaxThreads);
  set("GT_THREADS", std::to_string(kMaxThreads));
  EXPECT_EQ(threads, kMaxThreads);
  set("GT_THREADS", "0");
  EXPECT_EQ(threads, 0u);
  // -1 must not wrap to 2^64 - 1 lanes.
  for (const char* bad : {"-1", "18446744073709551615", "1025"})
    EXPECT_THROW(set("GT_THREADS", bad), Error) << bad;
  EXPECT_EQ(threads, 0u);
}

TEST(Knob, ChoicesAreAClosedSet) {
  const std::vector<std::string_view> levels{"debug", "info", "warn", "error", "off"};
  EXPECT_EQ(to_choice("GT_LOG_LEVEL", "warn", levels), 2u);
  EXPECT_EQ(error_of([&] { to_choice("GT_LOG_LEVEL", "verbose", levels); }),
            "GT_LOG_LEVEL='verbose' is not one of debug|info|warn|error|off");
  EXPECT_THROW(to_choice("GT_LOG_LEVEL", "WARN", levels), Error);
  EXPECT_THROW(to_choice("GT_LOG_LEVEL", "", levels), Error);
}

TEST(Knob, ListsParseEveryElementStrictly) {
  std::vector<double> alphas{9.0};
  const Setter set = into(alphas, 0.0, 1.0);
  set("--alphas", "0,0.15");
  EXPECT_EQ(alphas, (std::vector<double>{0.0, 0.15}));
  EXPECT_NE(error_of([&] { set("--alphas", "0,abc"); }).find("--alphas='abc'"),
            std::string::npos);
  for (const char* bad : {"", "0,", ",0", "0,,1", "0,2"})
    EXPECT_THROW(set("--alphas", bad), Error) << bad;

  std::vector<std::string> names;
  const Setter pick = into(names, {"clean", "on_off"});
  pick("--attacks", "on_off,clean");
  EXPECT_EQ(names, (std::vector<std::string>{"on_off", "clean"}));
  EXPECT_THROW(pick("--attacks", "on_off,sybil"), Error);
}

TEST(Knob, EnvFlagIsAWholeNumber) {
  bool quick = false;
  const Setter set = into(quick);
  set("GT_QUICK", "1");
  EXPECT_TRUE(quick);
  set("GT_QUICK", "0");
  EXPECT_FALSE(quick);
  EXPECT_THROW(set("GT_QUICK", "yes"), Error);
}

struct CliFixture : ::testing::Test {
  std::size_t n = 512;
  double rate = 1.0;
  bool poll = false;
  std::string path;
  std::string input;
  Cli cli{"tool",
          {{"INPUT", "", into(input), /*required=*/true},
           {"GT_TEST_CLI_N", "", into(n, 2)},
           {"--n", "N", into(n, 2)},
           {"--rate", "R", into(rate, 0.0)},
           {"--poll", "", into(poll)},
           {"--telemetry", "PATH", into(path)}}};

  void parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    cli.parse(static_cast<int>(args.size()), args.data());
  }
  std::string error(std::vector<const char*> args) {
    return error_of([&] { parse(std::move(args)); });
  }
  void TearDown() override { ::unsetenv("GT_TEST_CLI_N"); }
};

TEST_F(CliFixture, ParsesFlagsSwitchesAndPositionals) {
  parse({"in.bin", "--n", "64", "--poll", "--rate", "2.5", "--telemetry", "-"});
  EXPECT_EQ(input, "in.bin");
  EXPECT_EQ(n, 64u);
  EXPECT_TRUE(poll);
  EXPECT_DOUBLE_EQ(rate, 2.5);
  EXPECT_EQ(path, "-");
}

TEST_F(CliFixture, FlagOverridesItsVariable) {
  ::setenv("GT_TEST_CLI_N", "100", 1);
  parse({"in.bin"});
  EXPECT_EQ(n, 100u);
  parse({"in.bin", "--n", "7"});
  EXPECT_EQ(n, 7u);
  ::setenv("GT_TEST_CLI_N", "1", 1);
  EXPECT_EQ(error({"in.bin", "--n", "7"}), "GT_TEST_CLI_N='1' is not a whole number >= 2");
}

TEST_F(CliFixture, RejectsWhatTheTableDoesNotName) {
  EXPECT_EQ(error({"in.bin", "--telemtry", "x"}), "unknown flag '--telemtry'");
  EXPECT_EQ(error({"in.bin", "-h"}), "unknown flag '-h'");
  EXPECT_EQ(error({"in.bin", "extra"}), "unexpected argument 'extra'");
  EXPECT_EQ(error({"--poll"}), "missing INPUT");
  EXPECT_EQ(error({"in.bin", "--n"}), "--n needs a value N");
  EXPECT_EQ(error({"in.bin", "--n", "0x10"}), "--n='0x10' is not a whole number >= 2");
}

TEST_F(CliFixture, UsageComesFromTheTable) {
  EXPECT_EQ(cli.usage(),
            "usage: tool INPUT [--n N] [--rate R] [--poll] [--telemetry PATH]\n"
            "environment: GT_TEST_CLI_N\n");
}

}  // namespace
}  // namespace gt::knob
