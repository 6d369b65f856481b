#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "common/knob.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "trust/generator.hpp"

namespace gt {
namespace {

TEST(Table, PrintsAlignedColumns) {
  Table t("Demo");
  t.set_header({"a", "value"});
  t.add_row({"x", "1.000"});
  t.add_row({"longer", "2.000"});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvOutput) {
  Table t;
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(std::size_t{42}), "42");
  EXPECT_EQ(cell(static_cast<long long>(-3)), "-3");
  EXPECT_EQ(cell(0.25, 2), "0.25");
}

TEST(Table, RaggedRowsDoNotCrash) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  t.add_row({"1", "2", "3", "4"});
  std::ostringstream os;
  t.print(os);
  EXPECT_FALSE(os.str().empty());
}

// Reads one environment variable through a Cli table, as the binaries do.
template <typename T, typename... Range>
T read_env(const char* name, T fallback, Range... range) {
  T value = fallback;
  const char* argv[] = {"test"};
  knob::Cli("test", {{name, "", knob::into(value, range...)}}).parse(1, argv);
  return value;
}

TEST(Config, EnvSizeParsesAndFallsBack) {
  ::setenv("GT_TEST_SIZE", "123", 1);
  EXPECT_EQ(read_env<std::size_t>("GT_TEST_SIZE", 7), 123u);
  // Garbage is an error naming the variable, not a silent fallback.
  ::setenv("GT_TEST_SIZE", "garbage", 1);
  try {
    read_env<std::size_t>("GT_TEST_SIZE", 7);
    ADD_FAILURE() << "garbage GT_TEST_SIZE parsed";
  } catch (const knob::Error& e) {
    EXPECT_NE(std::string(e.what()).find("GT_TEST_SIZE='garbage'"), std::string::npos)
        << e.what();
  }
  ::setenv("GT_TEST_SIZE", "", 1);
  EXPECT_EQ(read_env<std::size_t>("GT_TEST_SIZE", 7), 7u);
  ::unsetenv("GT_TEST_SIZE");
  EXPECT_EQ(read_env<std::size_t>("GT_TEST_SIZE", 7), 7u);
}

TEST(Config, EnvDoubleParsesAndFallsBack) {
  ::setenv("GT_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(read_env("GT_TEST_DBL", 1.0), 0.25);
  ::setenv("GT_TEST_DBL", "0.25x", 1);
  EXPECT_THROW(read_env("GT_TEST_DBL", 1.0), knob::Error);
  ::unsetenv("GT_TEST_DBL");
  EXPECT_DOUBLE_EQ(read_env("GT_TEST_DBL", 1.0), 1.0);
}

TEST(Config, EnvString) {
  ::setenv("GT_TEST_STR", "hello", 1);
  EXPECT_EQ(read_env<std::string>("GT_TEST_STR", "d"), "hello");
  ::unsetenv("GT_TEST_STR");
  EXPECT_EQ(read_env<std::string>("GT_TEST_STR", "d"), "d");
}

// Table 2 defaults, read from the structs the engine and the workload
// generator actually use.
TEST(Config, PaperDefaultsMatchTable2) {
  const core::GossipTrustConfig engine;
  EXPECT_DOUBLE_EQ(engine.alpha, 0.15);
  EXPECT_DOUBLE_EQ(engine.power_node_fraction, 0.01);
  EXPECT_DOUBLE_EQ(engine.delta, 1e-3);
  EXPECT_DOUBLE_EQ(engine.epsilon, 1e-4);
  const trust::FeedbackGenConfig workload;
  EXPECT_EQ(workload.n, 1000u);
  EXPECT_EQ(workload.d_max, 200u);
  EXPECT_DOUBLE_EQ(workload.d_avg, 20.0);
}

TEST(Logging, LevelFiltering) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Nothing observable to assert on stderr, but the macros must compile
  // and run without side effects below the threshold.
  GT_DEBUG() << "below threshold, suppressed";
  GT_ERROR() << "visible";
  set_log_level(prev);
}

TEST(Logging, MacroNestsUnderAnUnbracedIf) {
  // GT_LOG is one expression: the else below must bind to this if, and
  // the stream's arguments run only when the level passes.
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kWarn);
  int evaluated = 0;
  bool else_taken = false;
  if (log_level() == LogLevel::kWarn)
    GT_DEBUG() << ++evaluated;
  else
    else_taken = true;
  EXPECT_FALSE(else_taken);
  EXPECT_EQ(evaluated, 0);
  if (log_level() == LogLevel::kWarn) GT_WARN() << ++evaluated;
  EXPECT_EQ(evaluated, 1);
  set_log_level(prev);
}

}  // namespace
}  // namespace gt
