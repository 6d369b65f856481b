#include "net/network.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "telemetry/event_log.hpp"
#include "telemetry/metrics.hpp"

namespace gt::net {
namespace {

struct Fixture {
  sim::Scheduler sched;
  NetworkConfig cfg;
  Fixture() { cfg.base_latency = 1.0; }
  Network make(std::size_t n) { return Network(sched, n, cfg, Rng(1)); }
};

/// Counts callback firings, snapshots payload bytes and, given a
/// scheduler, records each delivery's sim time.
struct PoolProbe {
  explicit PoolProbe(const sim::Scheduler* s = nullptr) : sched(s) {}

  const sim::Scheduler* sched;
  int delivers = 0, drops = 0, releases = 0;
  std::vector<double> deliver_times;
  std::vector<std::byte> last;
  std::string reason;

  static void on_deliver(void* c, std::span<const std::byte> p, NodeId,
                         NodeId) {
    auto* s = static_cast<PoolProbe*>(c);
    ++s->delivers;
    if (s->sched != nullptr) s->deliver_times.push_back(s->sched->now());
    s->last.assign(p.begin(), p.end());
  }
  static void on_drop(void* c, std::span<const std::byte> p, NodeId, NodeId,
                      const char* r) {
    auto* s = static_cast<PoolProbe*>(c);
    ++s->drops;
    s->reason = r;
    s->last.assign(p.begin(), p.end());
  }
  static void on_release(void* c) { ++static_cast<PoolProbe*>(c)->releases; }

  Network::PooledSend sink() {
    return Network::PooledSend{&on_deliver, &on_drop, &on_release, this};
  }
};

/// One message with an empty payload, accounted as `bytes` wire bytes and
/// one item; without a probe nobody is told of its fate.
bool send(Network& net, NodeId from, NodeId to, std::size_t bytes,
          PoolProbe* probe = nullptr) {
  return net.send_pooled(from, to, bytes, 1, net.acquire_payload(0),
                         probe != nullptr ? probe->sink() : Network::PooledSend{});
}

TEST(Network, DeliversAfterLatency) {
  Fixture f;
  auto net = f.make(2);
  PoolProbe probe{&f.sched};
  send(net, 0, 1, 100, &probe);
  EXPECT_EQ(probe.delivers, 0);  // in flight
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 1);
  ASSERT_EQ(probe.deliver_times.size(), 1u);
  EXPECT_DOUBLE_EQ(probe.deliver_times[0], 1.0);
}

TEST(Network, StatsCountBytesAndMessages) {
  Fixture f;
  auto net = f.make(3);
  send(net, 0, 1, 100);
  send(net, 1, 2, 50);
  f.sched.run_until();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 150u);
  EXPECT_EQ(net.stats().bytes_delivered, 150u);
  EXPECT_DOUBLE_EQ(net.stats().delivery_ratio(), 1.0);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages_sent, 0u);
}

TEST(Network, FullLossDropsEverything) {
  Fixture f;
  f.cfg.loss_probability = 1.0;
  auto net = f.make(2);
  PoolProbe probe;
  EXPECT_FALSE(send(net, 0, 1, 10, &probe));
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_DOUBLE_EQ(net.stats().delivery_ratio(), 0.0);
}

TEST(Network, PartialLossApproximatesProbability) {
  Fixture f;
  f.cfg.loss_probability = 0.3;
  auto net = f.make(2);
  PoolProbe probe;
  const int total = 10000;
  for (int i = 0; i < total; ++i) send(net, 0, 1, 1, &probe);
  f.sched.run_until();
  EXPECT_NEAR(static_cast<double>(probe.delivers) / total, 0.7, 0.02);
}

TEST(Network, DeadDestinationDrops) {
  Fixture f;
  auto net = f.make(2);
  net.set_node_up(1, false);
  PoolProbe probe;
  EXPECT_FALSE(send(net, 0, 1, 10, &probe));
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  net.set_node_up(1, true);
  EXPECT_TRUE(net.is_node_up(1));
  EXPECT_TRUE(send(net, 0, 1, 10, &probe));
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 1);
}

TEST(Network, DeadSenderDrops) {
  Fixture f;
  auto net = f.make(2);
  net.set_node_up(0, false);
  EXPECT_FALSE(send(net, 0, 1, 10));
}

TEST(Network, NodeDiesWhileMessageInFlight) {
  Fixture f;
  auto net = f.make(2);
  PoolProbe probe;
  send(net, 0, 1, 10, &probe);
  net.set_node_up(1, false);  // dies before the latency elapses
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(Network, LinkFailureBlocksBothDirections) {
  Fixture f;
  auto net = f.make(3);
  net.fail_link(0, 1);
  EXPECT_TRUE(net.link_failed(0, 1));
  EXPECT_TRUE(net.link_failed(1, 0));
  EXPECT_FALSE(send(net, 0, 1, 1));
  EXPECT_FALSE(send(net, 1, 0, 1));
  EXPECT_TRUE(send(net, 0, 2, 1));  // other links unaffected
  net.heal_link(1, 0);
  EXPECT_FALSE(net.link_failed(0, 1));
  EXPECT_TRUE(send(net, 0, 1, 1));
  EXPECT_EQ(net.failed_link_count(), 0u);
}

TEST(Network, ResetStatsClearsEveryCounter) {
  // Companion to Scheduler::reset's executed-counter fix: a Network reused
  // across measurement windows must start each window from zero.
  Fixture f;
  auto net = f.make(3);
  net.fail_link(0, 2);
  send(net, 0, 1, 100);
  send(net, 0, 2, 25);  // dropped on the failed link
  f.sched.run_until();
  ASSERT_GT(net.stats().messages_sent, 0u);
  ASSERT_GT(net.stats().messages_dropped, 0u);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages_sent, 0u);
  EXPECT_EQ(net.stats().messages_delivered, 0u);
  EXPECT_EQ(net.stats().messages_dropped, 0u);
  EXPECT_EQ(net.stats().bytes_sent, 0u);
  EXPECT_EQ(net.stats().bytes_delivered, 0u);
  send(net, 1, 2, 10);
  f.sched.run_until();
  EXPECT_EQ(net.stats().messages_sent, 1u);  // fresh window
}

TEST(Network, BytesDroppedAccountedOnSendTimeDrops) {
  Fixture f;
  auto net = f.make(3);
  net.fail_link(0, 1);
  net.set_node_up(2, false);
  send(net, 0, 1, 40);  // link_failed
  send(net, 0, 2, 60);  // receiver_down
  send(net, 2, 0, 25);  // sender_down
  f.sched.run_until();
  EXPECT_EQ(net.stats().messages_dropped, 3u);
  EXPECT_EQ(net.stats().bytes_dropped, 125u);
  EXPECT_EQ(net.stats().bytes_delivered, 0u);
}

TEST(Network, BytesDroppedAccountedOnInFlightDrops) {
  Fixture f;
  auto net = f.make(2);
  send(net, 0, 1, 80);
  net.set_node_up(1, false);  // dies before the latency elapses
  f.sched.run_until();
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().bytes_dropped, 80u);
  EXPECT_EQ(net.stats().bytes_sent, 80u);
  EXPECT_EQ(net.stats().bytes_delivered, 0u);
}

TEST(Network, SentEqualsDeliveredPlusDroppedOnceDrained) {
  // The TrafficStats invariant, exercised across every drop path: random
  // loss, a failed link, a dead receiver, and an in-flight death.
  Fixture f;
  f.cfg.loss_probability = 0.25;
  auto net = f.make(4);
  net.fail_link(2, 3);
  net.set_node_up(3, false);
  Rng traffic(7);
  for (int i = 0; i < 2000; ++i) {
    const NodeId from = traffic.next_below(4);
    NodeId to = traffic.next_below(3);
    if (to >= from) ++to;
    send(net, from, to, 10);
    if (i == 1000) net.set_node_up(1, false);  // kills some in-flight
  }
  f.sched.run_until();
  const auto& s = net.stats();
  EXPECT_EQ(s.messages_sent, 2000u);
  EXPECT_EQ(s.messages_sent, s.messages_delivered + s.messages_dropped);
  EXPECT_EQ(s.bytes_sent, s.bytes_delivered + s.bytes_dropped);
  EXPECT_GT(s.messages_dropped, 0u);
  EXPECT_GT(s.messages_delivered, 0u);
}

TEST(Network, TelemetryMirrorsStatsAndEmitsEvents) {
  Fixture f;
  auto net = f.make(3);
  telemetry::MetricsRegistry reg;
  const std::string path = testing::TempDir() + "gt_net_events.jsonl";
  telemetry::EventLogConfig lcfg;
  lcfg.path = path;
  telemetry::EventLog log(lcfg);
  ASSERT_TRUE(log.enabled());
  net.attach_telemetry(&reg, &log);

  net.fail_link(0, 2);           // net_outage: link_failed
  net.set_node_up(1, false);     // net_outage: node_down
  net.set_node_up(1, false);     // no state change: no event
  net.set_node_up(1, true);      // net_outage: node_up
  net.heal_link(0, 2);           // net_outage: link_healed
  send(net, 0, 1, 100);
  net.fail_link(0, 2);
  send(net, 0, 2, 30);           // net_drop: link_failed
  f.sched.run_until();
  log.flush();

  const auto snap = reg.snapshot();
  EXPECT_EQ(*snap.counter("net.messages_sent"), net.stats().messages_sent);
  EXPECT_EQ(*snap.counter("net.messages_delivered"),
            net.stats().messages_delivered);
  EXPECT_EQ(*snap.counter("net.messages_dropped"), net.stats().messages_dropped);
  EXPECT_EQ(*snap.counter("net.bytes_sent"), net.stats().bytes_sent);
  EXPECT_EQ(*snap.counter("net.bytes_delivered"), net.stats().bytes_delivered);
  EXPECT_EQ(*snap.counter("net.bytes_dropped"), net.stats().bytes_dropped);

  std::ifstream in(path);
  std::string line;
  int outages = 0, drops = 0;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"net_outage\"") != std::string::npos) ++outages;
    if (line.find("\"event\":\"net_drop\"") != std::string::npos) ++drops;
  }
  EXPECT_EQ(outages, 5);  // link_failed, node_down, node_up, link_healed, link_failed
  EXPECT_EQ(drops, 1);
  std::remove(path.c_str());
}

TEST(Network, PartitionBlocksCrossGroupTraffic) {
  Fixture f;
  auto net = f.make(4);
  net.set_partition({0, 0, 1, 1});
  EXPECT_TRUE(net.partitioned());
  EXPECT_TRUE(net.cross_partition(0, 2));
  EXPECT_FALSE(net.cross_partition(0, 1));
  PoolProbe within;
  EXPECT_TRUE(send(net, 0, 1, 10, &within));  // same group
  EXPECT_FALSE(send(net, 0, 2, 10));          // cross-group
  f.sched.run_until();
  EXPECT_EQ(within.delivers, 1);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  net.clear_partition();
  EXPECT_FALSE(net.partitioned());
  EXPECT_TRUE(send(net, 0, 2, 10));
}

TEST(Network, PartitionOpeningMidFlightDropsWithReason) {
  Fixture f;
  auto net = f.make(2);
  PoolProbe probe;
  send(net, 0, 1, 10, &probe);
  net.set_partition({0, 1});  // splits while the message is in flight
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(probe.reason, "partitioned_in_flight");
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(Network, OnDropReportsInFlightReceiverDeath) {
  Fixture f;
  auto net = f.make(2);
  PoolProbe probe;
  send(net, 0, 1, 10, &probe);
  net.set_node_up(1, false);
  f.sched.run_until();
  EXPECT_EQ(probe.drops, 1);
  EXPECT_EQ(probe.reason, "receiver_down_in_flight");
}

TEST(Network, DuplicationDeliversBonusCopies) {
  Fixture f;
  f.cfg.duplicate_probability = 1.0;
  auto net = f.make(2);
  PoolProbe probe;
  send(net, 0, 1, 10, &probe);
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 2);
  const auto& s = net.stats();
  // The duplicate never perturbs the primary invariant.
  EXPECT_EQ(s.messages_sent, 1u);
  EXPECT_EQ(s.messages_delivered, 1u);
  EXPECT_EQ(s.messages_dropped, 0u);
  EXPECT_EQ(s.messages_duplicated, 1u);
  EXPECT_EQ(s.duplicates_delivered, 1u);
}

TEST(Network, DuplicateCopyLossIsSilent) {
  Fixture f;
  f.cfg.duplicate_probability = 1.0;
  auto net = f.make(3);
  PoolProbe probe;
  send(net, 0, 1, 10, &probe);
  net.set_node_up(1, false);  // kills both copies in flight
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(probe.drops, 1);  // the copy's loss reports nothing
  const auto& s = net.stats();
  EXPECT_EQ(s.messages_dropped, 1u);  // only the primary is accounted
  EXPECT_EQ(s.messages_duplicated, 1u);
  EXPECT_EQ(s.duplicates_delivered, 0u);
}

TEST(Network, CorruptionDropsAtDeliveryWithReason) {
  Fixture f;
  f.cfg.corrupt_probability = 1.0;
  auto net = f.make(2);
  PoolProbe probe;
  // Corruption is decided at send time but bites at delivery: the send
  // itself succeeds (the bytes do travel).
  EXPECT_TRUE(send(net, 0, 1, 10, &probe));
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(probe.reason, "corrupted");
  EXPECT_EQ(net.stats().messages_corrupted, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST(Network, ZeroProbabilityKnobsPreserveRngStream) {
  // New fault knobs at probability 0 must not consume randomness, so
  // legacy runs keep their exact delivery schedules.
  Fixture f;
  f.cfg.jitter = 1.0;
  auto baseline = f.make(2);
  PoolProbe a{&f.sched};
  for (int i = 0; i < 50; ++i) send(baseline, 0, 1, 1, &a);
  f.sched.run_until();

  Fixture g;
  g.cfg.jitter = 1.0;
  g.cfg.duplicate_probability = 0.0;
  g.cfg.corrupt_probability = 0.0;
  auto knobs = g.make(2);
  PoolProbe b{&g.sched};
  for (int i = 0; i < 50; ++i) send(knobs, 0, 1, 1, &b);
  g.sched.run_until();
  EXPECT_EQ(a.deliver_times.size(), 50u);
  EXPECT_EQ(a.deliver_times, b.deliver_times);
}

TEST(Network, ZeroJitterConsumesNoRandomness) {
  // With jitter disabled (and every other knob at 0), each send draws
  // exactly one bool for loss — no jitter double, no corrupt/duplicate
  // bools. A bare Rng with the network's seed therefore predicts every
  // send outcome; any extra draw would desynchronize the replay.
  Fixture f;
  f.cfg.jitter = 0.0;
  f.cfg.loss_probability = 0.3;
  auto net = f.make(2);
  std::vector<bool> sent(200);
  for (int i = 0; i < 200; ++i) sent[i] = send(net, 0, 1, 1);
  f.sched.run_until();
  Rng replay(1);  // same seed the fixture hands the network
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(sent[i], !replay.next_bool(0.3)) << "send " << i;
}

TEST(Network, PooledSendDeliversPayloadBytes) {
  Fixture f;
  auto net = f.make(2);
  const MsgHandle h = net.acquire_payload(4);
  const std::byte want[4] = {std::byte{0xde}, std::byte{0xad}, std::byte{0xbe},
                             std::byte{0xef}};
  std::memcpy(net.payload(h).data(), want, sizeof want);
  PoolProbe probe;
  EXPECT_TRUE(net.send_pooled(0, 1, 64, 4, h, probe.sink()));
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 1);
  EXPECT_EQ(probe.drops, 0);
  EXPECT_EQ(probe.releases, 1);
  ASSERT_EQ(probe.last.size(), 4u);
  EXPECT_EQ(std::memcmp(probe.last.data(), want, sizeof want), 0);
  // Accounted size and logical items are the caller's declaration, not the
  // buffer length.
  EXPECT_EQ(net.stats().bytes_delivered, 64u);
  EXPECT_EQ(net.stats().items_sent, 4u);
  EXPECT_EQ(net.stats().items_delivered, 4u);
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(Network, PooledSendInFlightDropFiresDropHookOnce) {
  Fixture f;
  auto net = f.make(2);
  const MsgHandle h = net.acquire_payload(8);
  PoolProbe probe;
  EXPECT_TRUE(net.send_pooled(0, 1, 8, 3, h, probe.sink()));
  net.set_node_up(1, false);  // dies before the latency elapses
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(probe.drops, 1);
  EXPECT_EQ(probe.releases, 1);
  EXPECT_EQ(probe.reason, "receiver_down_in_flight");
  EXPECT_EQ(net.stats().items_dropped, 3u);
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(Network, PooledSendTimeDropReleasesWithoutCallbacks) {
  // Send-time drops report through the return value only; the release
  // hook still fires exactly once so the caller can reclaim its context.
  Fixture f;
  auto net = f.make(2);
  net.fail_link(0, 1);
  const MsgHandle h = net.acquire_payload(8);
  PoolProbe probe;
  EXPECT_FALSE(net.send_pooled(0, 1, 8, 2, h, probe.sink()));
  EXPECT_EQ(probe.delivers, 0);
  EXPECT_EQ(probe.drops, 0);
  EXPECT_EQ(probe.releases, 1);
  EXPECT_EQ(net.stats().items_dropped, 2u);
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(Network, PooledDuplicateSharesSlotAndDeliversTwice) {
  Fixture f;
  f.cfg.duplicate_probability = 1.0;
  auto net = f.make(2);
  const MsgHandle h = net.acquire_payload(4);
  net.payload(h)[0] = std::byte{42};
  PoolProbe probe;
  EXPECT_TRUE(net.send_pooled(0, 1, 4, 1, h, probe.sink()));
  EXPECT_EQ(net.pool().live(), 1u) << "the copy shares the slot, not a new one";
  f.sched.run_until();
  EXPECT_EQ(probe.delivers, 2);
  EXPECT_EQ(probe.releases, 1) << "release fires once, after the last copy";
  EXPECT_EQ(net.stats().items_delivered, 1u) << "duplicates are bonus traffic";
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(Network, MessagePoolReachesSteadyState) {
  // The zero-allocation claim at the network layer: sequential traffic
  // (send, drain, repeat) recycles one payload slot forever — the slab
  // high-water mark stays 1 no matter how many messages flow.
  Fixture f;
  auto net = f.make(2);
  for (int i = 0; i < 500; ++i) {
    send(net, 0, 1, 16);
    f.sched.run_until();
  }
  EXPECT_EQ(net.pool().slab_size(), 1u);
  EXPECT_EQ(net.pool().total_acquires(), 500u);
  EXPECT_EQ(net.pool().live(), 0u);
}

TEST(Network, PooledSendSumsDeclaredItemsAcrossMessages) {
  // Items are what each send declares, summed over messages, whatever the
  // byte size; a dropped message's items land in items_dropped.
  Fixture f;
  auto net = f.make(3);
  net.fail_link(0, 2);
  EXPECT_TRUE(net.send_pooled(0, 1, 100, 1, net.acquire_payload(0), {}));
  EXPECT_TRUE(net.send_pooled(0, 1, 50, 3, net.acquire_payload(0), {}));
  EXPECT_FALSE(net.send_pooled(0, 2, 50, 2, net.acquire_payload(0), {}));
  f.sched.run_until();
  EXPECT_EQ(net.stats().items_sent, 6u);
  EXPECT_EQ(net.stats().items_delivered, 4u);
  EXPECT_EQ(net.stats().items_dropped, 2u);
  EXPECT_EQ(net.stats().messages_sent, 3u);
}

using NetworkDeathTest = Fixture;

TEST(NetworkDeathTest, OutOfRangeNodeAbortsLoudly) {
  // Bounds violations abort in every build type (same convention as
  // Rng::next_below(0)) instead of silently indexing out of range when
  // NDEBUG strips assert().
  Fixture f;
  auto net = f.make(2);
  EXPECT_DEATH(send(net, 0, 5, 1), "out of range");
  EXPECT_DEATH(send(net, 7, 0, 1), "out of range");
  EXPECT_DEATH(net.set_node_up(2, false), "out of range");
  EXPECT_DEATH(net.is_node_up(9), "out of range");
}

TEST(NetworkDeathTest, PartitionSizeMismatchAbortsLoudly) {
  Fixture f;
  auto net = f.make(3);
  EXPECT_DEATH(net.set_partition({0, 1}), "group entries");
}

TEST(Network, JitterBoundsDeliveryTime) {
  Fixture f;
  f.cfg.jitter = 2.0;
  auto net = f.make(2);
  PoolProbe probe{&f.sched};
  for (int i = 0; i < 100; ++i) {
    send(net, 0, 1, 1, &probe);
    const double sent_at = f.sched.now();
    f.sched.run_until();
    ASSERT_EQ(probe.deliver_times.size(), static_cast<std::size_t>(i + 1));
    const double at = probe.deliver_times.back();
    ASSERT_GE(at, sent_at + 1.0);
    ASSERT_LT(at, sent_at + 3.0);
  }
}

}  // namespace
}  // namespace gt::net
