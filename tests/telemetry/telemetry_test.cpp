#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gossip/vector_gossip.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/scoped_timer.hpp"
#include "trust/matrix.hpp"

namespace gt::telemetry {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersAccumulateAcrossLanes) {
  MetricsRegistry reg(4);
  const Counter c = reg.counter("test.count");
  ASSERT_TRUE(c.valid());
  reg.add(c, 1, 0);
  reg.add(c, 2, 1);
  reg.add(c, 3, 2);
  reg.add(c, 4, 3);
  EXPECT_EQ(reg.counter_value(c), 10u);

  // Lane-partitioned totals must match a single-lane registry fed the same
  // deltas — the merge is a plain integer sum, order-insensitive.
  MetricsRegistry single(1);
  const Counter c1 = single.counter("test.count");
  for (std::uint64_t d : {1u, 2u, 3u, 4u}) single.add(c1, d);
  EXPECT_EQ(reg.counter_value(c), single.counter_value(c1));
}

TEST(MetricsRegistry, DuplicateRegistrationReturnsSameHandle) {
  MetricsRegistry reg;
  const Counter a = reg.counter("dup");
  const Counter b = reg.counter("dup");
  EXPECT_EQ(a.id, b.id);
  reg.add(a, 5);
  reg.add(b, 5);
  EXPECT_EQ(reg.counter_value(a), 10u);
}

TEST(MetricsRegistry, InvalidHandleAndOutOfRangeLaneAreNoOps) {
  MetricsRegistry reg(2);
  const Counter c = reg.counter("c");
  reg.add(Counter{}, 7);        // invalid handle
  reg.add(c, 7, 99);            // lane out of range
  EXPECT_EQ(reg.counter_value(c), 0u);
  EXPECT_EQ(reg.counter_value(Counter{}), 0u);
}

TEST(MetricsRegistry, GaugeHoldsLastValue) {
  MetricsRegistry reg;
  const Gauge g = reg.gauge("test.gauge");
  reg.set(g, 1.5);
  reg.set(g, -2.25);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), -2.25);
}

TEST(MetricsRegistry, SnapshotLookupsAndRegistrationOrder) {
  MetricsRegistry reg(2);
  const Counter c = reg.counter("a.count");
  reg.counter("b.count");
  const Gauge g = reg.gauge("a.gauge");
  reg.histogram("a.hist");
  reg.add(c, 3, 0);
  reg.add(c, 4, 1);
  reg.set(g, 9.0);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.count");  // registration order
  EXPECT_EQ(snap.counters[1].first, "b.count");
  ASSERT_NE(snap.counter("a.count"), nullptr);
  EXPECT_EQ(*snap.counter("a.count"), 7u);
  ASSERT_NE(snap.gauge("a.gauge"), nullptr);
  EXPECT_DOUBLE_EQ(*snap.gauge("a.gauge"), 9.0);
  ASSERT_NE(snap.histogram("a.hist"), nullptr);
  EXPECT_EQ(snap.counter("missing"), nullptr);
  EXPECT_EQ(snap.gauge("missing"), nullptr);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsRegistry, ResetZeroesKeepsRegistrations) {
  MetricsRegistry reg(2);
  const Counter c = reg.counter("c");
  const Gauge g = reg.gauge("g");
  const Histogram h = reg.histogram("h");
  reg.add(c, 5, 1);
  reg.set(g, 3.0);
  reg.observe(h, 1.0);
  reg.reset();
  EXPECT_EQ(reg.counter_value(c), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 0.0);
  const auto snap = reg.snapshot();
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 0u);
  // Handles stay usable after reset.
  reg.add(c, 2);
  EXPECT_EQ(reg.counter_value(c), 2u);
}

// ---------------------------------------------------------------------------
// Histograms

TEST(Histogram, BucketEdgesUnderOverflow) {
  MetricsRegistry reg;
  // Buckets: [1, 2), [2, 4), [4, 8), underflow < 1, overflow >= 8.
  const Histogram h = reg.histogram("h", HistogramOptions{1.0, 2.0, 3});
  reg.observe(h, 0.5);    // underflow
  reg.observe(h, 1.0);    // bucket 0 lower edge
  reg.observe(h, 1.999);  // bucket 0
  reg.observe(h, 2.0);    // bucket 1 lower edge
  reg.observe(h, 7.999);  // bucket 2
  reg.observe(h, 8.0);    // overflow (>= top)
  reg.observe(h, 1e9);    // overflow
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());  // underflow slot

  const MetricsSnapshot snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->counts.size(), 5u);  // buckets + 2
  EXPECT_EQ(hs->counts[0], 2u);      // underflow: 0.5 and NaN
  EXPECT_EQ(hs->counts[1], 2u);      // [1, 2)
  EXPECT_EQ(hs->counts[2], 1u);      // [2, 4)
  EXPECT_EQ(hs->counts[3], 1u);      // [4, 8)
  EXPECT_EQ(hs->counts[4], 2u);      // overflow
  EXPECT_EQ(hs->count, 8u);
  EXPECT_DOUBLE_EQ(hs->bucket_lower(0), 1.0);
  EXPECT_DOUBLE_EQ(hs->bucket_lower(2), 4.0);
  EXPECT_DOUBLE_EQ(hs->max, 1e9);
}

TEST(Histogram, SumMinMaxMeanExact) {
  MetricsRegistry reg(2);
  const Histogram h = reg.histogram("h", HistogramOptions{1e-3, 2.0, 16});
  reg.observe(h, 0.25, 0);
  reg.observe(h, 0.5, 1);
  reg.observe(h, 0.125, 1);
  const MetricsSnapshot snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 3u);
  EXPECT_DOUBLE_EQ(hs->sum, 0.875);  // powers of two: exact in FP
  EXPECT_DOUBLE_EQ(hs->min, 0.125);
  EXPECT_DOUBLE_EQ(hs->max, 0.5);
  EXPECT_DOUBLE_EQ(hs->mean(), 0.875 / 3.0);
}

TEST(Histogram, PercentileBucketResolution) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("h", HistogramOptions{1.0, 2.0, 4});
  for (int i = 0; i < 10; ++i) reg.observe(h, 1.5);   // bucket [1, 2)
  for (int i = 0; i < 10; ++i) reg.observe(h, 5.0);   // bucket [4, 8)
  const MetricsSnapshot snap = reg.snapshot();
  const auto* hs = snap.histogram("h");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->percentile(0), 1.5);    // exact min
  EXPECT_DOUBLE_EQ(hs->percentile(100), 5.0);  // exact max
  EXPECT_DOUBLE_EQ(hs->percentile(50), 2.0);   // upper edge of [1, 2)
  EXPECT_DOUBLE_EQ(hs->percentile(90), 8.0);   // upper edge of [4, 8)
}

TEST(Histogram, PercentileEmptyAndSingle) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("h");
  const MetricsSnapshot empty = reg.snapshot();
  EXPECT_DOUBLE_EQ(empty.histogram("h")->percentile(50), 0.0);
  reg.observe(h, 3.5);
  const MetricsSnapshot one = reg.snapshot();
  EXPECT_DOUBLE_EQ(one.histogram("h")->percentile(0), 3.5);
  EXPECT_DOUBLE_EQ(one.histogram("h")->percentile(100), 3.5);
}

TEST(Histogram, LaneMergeEqualsSingleLane) {
  const std::vector<double> values{1e-8, 3e-7, 2e-6, 5e-5, 0.1, 7.0, 1e3};
  MetricsRegistry multi(4), single(1);
  const Histogram hm = multi.histogram("h");
  const Histogram hs = single.histogram("h");
  for (std::size_t i = 0; i < values.size(); ++i) {
    multi.observe(hm, values[i], i % 4);
    single.observe(hs, values[i]);
  }
  const MetricsSnapshot snap_multi = multi.snapshot();
  const MetricsSnapshot snap_single = single.snapshot();
  const auto* a = snap_multi.histogram("h");
  const auto* b = snap_single.histogram("h");
  EXPECT_EQ(a->counts, b->counts);
  EXPECT_EQ(a->count, b->count);
  EXPECT_DOUBLE_EQ(a->min, b->min);
  EXPECT_DOUBLE_EQ(a->max, b->max);
  EXPECT_NEAR(a->sum, b->sum, 1e-12 * std::abs(b->sum));
}

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriter, FlatFieldsAndTypes) {
  JsonWriter w;
  w.field("s", "hi")
      .field("i", std::int64_t{-3})
      .field("u", std::uint64_t{7})
      .field("d", 0.5)
      .field("b", true)
      .field("sz", std::size_t{42});
  EXPECT_EQ(w.finish(),
            R"({"s":"hi","i":-3,"u":7,"d":0.5,"b":true,"sz":42})");
}

TEST(JsonWriter, EscapesControlAndSpecialCharacters) {
  JsonWriter w;
  w.field("k", "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(w.finish(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.field("nan", std::numeric_limits<double>::quiet_NaN())
      .field("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(w.finish(), R"({"nan":null,"inf":null})");
}

TEST(JsonWriter, DoublesRoundTrip) {
  JsonWriter w;
  const double v = 0.1 + 0.2;  // needs 17 significant digits
  w.field("v", v);
  const std::string line = w.finish();
  double parsed = 0.0;
  ASSERT_EQ(std::sscanf(line.c_str(), "{\"v\":%lf}", &parsed), 1);
  EXPECT_EQ(parsed, v);  // bitwise round-trip
}

TEST(JsonWriter, NestedObjectsAndArrays) {
  JsonWriter w;
  w.field("a", std::uint64_t{1});
  w.begin_object("o").field("x", 2.0).end();
  w.begin_array("arr").element(std::uint64_t{1}).element(2.5).end();
  EXPECT_EQ(w.finish(), R"({"a":1,"o":{"x":2},"arr":[1,2.5]})");
}

TEST(JsonWriter, FinishIsIdempotent) {
  JsonWriter w;
  w.field("a", std::uint64_t{1});
  const std::string first = w.finish();
  EXPECT_EQ(w.finish(), first);
}

TEST(JsonWriter, RawFieldPassesThrough) {
  JsonWriter w;
  w.field_raw("ctx", R"({"k":1})");
  EXPECT_EQ(w.finish(), R"({"ctx":{"k":1}})");
}

// ---------------------------------------------------------------------------
// EventLog

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string temp_log_path(const char* tag) {
  return testing::TempDir() + "gt_eventlog_" + tag + ".jsonl";
}

TEST(EventLog, DisabledLogIsANoOp) {
  EventLog log;  // default: disabled
  EXPECT_FALSE(log.enabled());
  log.record("cycle").field("n", std::uint64_t{5});
  log.flush();
  EXPECT_EQ(log.records_logged(), 0u);
}

TEST(EventLog, WritesOneParseableLinePerRecord) {
  const std::string path = temp_log_path("basic");
  {
    EventLogConfig cfg;
    cfg.path = path;
    EventLog log(cfg);
    ASSERT_TRUE(log.enabled());
    log.set_context("bench", std::string("unit"));
    log.set_context("n", std::uint64_t{8});
    log.record("cycle").field("steps", std::uint64_t{21}).field("ok", true);
    log.record("gossip_step").field("step", std::uint64_t{16});
    EXPECT_EQ(log.records_logged(), 2u);
  }  // destructor flushes + closes (appending a final meta record)
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  // Schema: ts/seq/event stamped first, then context, then fields.
  EXPECT_EQ(lines[0].find("{\"ts\":"), 0u);
  EXPECT_NE(lines[0].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"cycle\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"bench\":\"unit\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"n\":8"), std::string::npos);
  EXPECT_NE(lines[0].find("\"steps\":21"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_NE(lines[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"gossip_step\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"event\":\"meta\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, RingFlushesWhenFull) {
  const std::string path = temp_log_path("ring");
  EventLogConfig cfg;
  cfg.path = path;
  cfg.ring_capacity = 4;
  EventLog log(cfg);
  ASSERT_TRUE(log.enabled());
  for (int i = 0; i < 10; ++i)
    log.record("tick").field("i", static_cast<std::uint64_t>(i));
  // 10 records through a 4-slot ring: at least two auto-flushes happened,
  // so the file already holds the flushed prefix before any explicit flush.
  EXPECT_LE(log.buffered(), 4u);
  EXPECT_GE(read_lines(path).size(), 8u);
  log.flush();
  EXPECT_EQ(log.buffered(), 0u);
  EXPECT_EQ(read_lines(path).size(), 10u);
  std::remove(path.c_str());
}

TEST(EventLog, MetricsSnapshotInlined) {
  const std::string path = temp_log_path("metrics");
  MetricsRegistry reg;
  reg.add(reg.counter("gossip.messages_sent"), 123);
  reg.set(reg.gauge("gossip.active_triplets"), 64.0);
  reg.observe(reg.histogram("gossip.send_phase_seconds"), 0.5);
  {
    EventLogConfig cfg;
    cfg.path = path;
    EventLog log(cfg);
    log.record("cycle").metrics(reg.snapshot());
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);  // cycle + final meta record
  EXPECT_NE(lines[0].find("\"gossip.messages_sent\":123"), std::string::npos);
  EXPECT_NE(lines[0].find("\"gossip.active_triplets\":64"), std::string::npos);
  EXPECT_NE(lines[0].find("\"gossip.send_phase_seconds\":{\"count\":1"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, AppendModePreservesExistingLines) {
  const std::string path = temp_log_path("append");
  EventLogConfig cfg;
  cfg.path = path;
  { EventLog log(cfg); log.record("first"); }
  cfg.append = true;
  { EventLog log(cfg); log.record("second"); }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 4u);  // each run: its record + final meta record
  EXPECT_NE(lines[0].find("\"event\":\"first\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"event\":\"meta\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"event\":\"second\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, FlightRecorderModeDropsOldestAndReportsLoss) {
  const std::string path = temp_log_path("overflow");
  {
    EventLogConfig cfg;
    cfg.path = path;
    cfg.ring_capacity = 4;
    cfg.drop_oldest_on_overflow = true;
    EventLog log(cfg);
    ASSERT_TRUE(log.enabled());
    for (int i = 0; i < 10; ++i)
      log.record("tick").field("i", static_cast<std::uint64_t>(i));
    // 10 records through a 4-slot flight-recorder ring: the oldest 6 are
    // overwritten rather than flushed, and the loss is accounted.
    EXPECT_EQ(log.lines_dropped(), 6u);
  }  // destructor: meta record, flush
  const auto lines = read_lines(path);
  // Retained window (newest 4) in order, plus the final meta record.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_NE(lines[0].find("\"i\":6"), std::string::npos);
  EXPECT_NE(lines[3].find("\"i\":9"), std::string::npos);
  EXPECT_NE(lines[4].find("\"event\":\"meta\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"lines_dropped\":6"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, MetaRecordWrittenWithoutOverflow) {
  const std::string path = temp_log_path("meta");
  {
    EventLogConfig cfg;
    cfg.path = path;
    EventLog log(cfg);
    log.record("tick");
    EXPECT_EQ(log.lines_dropped(), 0u);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"event\":\"meta\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"records_logged\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"lines_dropped\":0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLog, UnopenablePathDisablesGracefully) {
  EventLogConfig cfg;
  cfg.path = "/nonexistent-dir-xyz/log.jsonl";
  EventLog log(cfg);
  EXPECT_FALSE(log.enabled());
  log.record("cycle").field("n", std::uint64_t{1});  // must not crash
  EXPECT_EQ(log.records_logged(), 0u);
}

// ---------------------------------------------------------------------------
// ScopedTimer

TEST(ScopedTimer, ObservesIntoHistogramAndAccumulator) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("t", HistogramOptions{1e-9, 2.0, 40});
  double acc = 0.0;
  { ScopedTimer t(reg, h, 0, &acc); }
  const MetricsSnapshot snap = reg.snapshot();
  const auto* hs = snap.histogram("t");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1u);
  EXPECT_GT(hs->sum, 0.0);
  // The same stop() wrote both sinks, so the values are identical.
  EXPECT_DOUBLE_EQ(acc, hs->sum);
}

TEST(ScopedTimer, StopDisarms) {
  double acc = 0.0;
  ScopedTimer t(&acc);
  t.stop();
  const double once = acc;
  EXPECT_GT(once, 0.0);
  t.stop();  // no-op
  EXPECT_DOUBLE_EQ(acc, once);
}  // destructor: still a no-op

// ---------------------------------------------------------------------------
// Determinism: telemetry must be observational only.

trust::SparseMatrix ring_matrix(std::size_t n) {
  trust::SparseMatrix::Builder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, (i + 1) % n, 0.7);
    b.add(i, (i + 2) % n, 0.3);
  }
  return std::move(b).build().row_normalized();
}

TEST(TelemetryDeterminism, EventLogAttachedKeepsGossipBitIdentical) {
  const std::size_t n = 24;
  const auto s = ring_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-5;
  cfg.stable_rounds = 2;

  gossip::VectorGossip plain(n, cfg);
  plain.initialize(s, v);
  Rng r1(99);
  const auto res_plain = plain.run(r1);
  const auto means_plain = plain.consensus_means();

  const std::string path = temp_log_path("determinism");
  gossip::VectorGossip logged(n, cfg);
  {
    EventLogConfig lcfg;
    lcfg.path = path;
    EventLog log(lcfg);
    logged.set_event_log(&log, 2);  // dense step sampling
    logged.initialize(s, v);
    Rng r2(99);
    const auto res_logged = logged.run(r2);
    EXPECT_EQ(res_logged.steps, res_plain.steps);
    EXPECT_EQ(res_logged.messages_sent, res_plain.messages_sent);
    EXPECT_EQ(res_logged.triplets_sent, res_plain.triplets_sent);
  }
  const auto means_logged = logged.consensus_means();
  ASSERT_EQ(means_logged.size(), means_plain.size());
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(means_logged[j], means_plain[j]) << "component " << j;
  EXPECT_GT(read_lines(path).size(), 0u);
  std::remove(path.c_str());
}

TEST(TelemetryDeterminism, RegistryCountersMatchResultCounters) {
  const std::size_t n = 16;
  const auto s = ring_matrix(n);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.loss_probability = 0.1;

  gossip::VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(7);
  const auto res = vg.run(rng);
  const auto snap = vg.metrics().snapshot();
  EXPECT_EQ(*snap.counter("gossip.messages_sent"), res.messages_sent);
  EXPECT_EQ(*snap.counter("gossip.messages_lost"), res.messages_lost);
  EXPECT_EQ(*snap.counter("gossip.triplets_sent"), res.triplets_sent);
  // The sparsity figures are derived from the counters, not counted.
  EXPECT_EQ(res.zero_components_skipped,
            res.messages_sent * n - res.triplets_sent);
  EXPECT_EQ(res.active_triplets, static_cast<std::uint64_t>(n) * n);
  EXPECT_EQ(snap.histogram("gossip.send_phase_seconds")->count, res.steps);
}

}  // namespace
}  // namespace gt::telemetry
