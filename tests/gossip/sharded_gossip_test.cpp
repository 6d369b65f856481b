// Shard-determinism suite for the million-node execution path.
//
// The contract under test: a ShardedGossip run with S shards on T threads
// is BIT-identical to the shards = 1 single-queue oracle — same per-slot
// estimates to the last ULP, same event/drop counters, same error curve —
// for any thread count, with and without an active FaultPlan. Shards and
// threads may only change wall time, never a bit of the trajectory.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_plan.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"

namespace gt::gossip {
namespace {

graph::Graph make_overlay(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = graph::make_erdos_renyi(n, n * 3, rng);
  graph::make_connected(g, rng);
  return g;
}

ShardedGossipConfig base_config() {
  ShardedGossipConfig cfg;
  cfg.components = 4;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 3;
  cfg.horizon = 400.0;
  cfg.seed = 42;
  cfg.sample_every = 8;
  return cfg;
}

struct RunSnapshot {
  ShardedGossipResult result;
  std::vector<std::uint64_t> estimate_bits;  // one entry per (node, comp) slot
  ShardedMassSummary mass;
};

RunSnapshot run_once(const graph::CsrView& csr, ShardedGossipConfig cfg,
                     const fault::FaultPlan* plan = nullptr) {
  ShardedGossip eng(csr, cfg);
  eng.initialize_fig3(/*workload_seed=*/7);
  if (plan != nullptr) eng.set_fault_plan(*plan);
  RunSnapshot snap;
  snap.result = eng.run();
  snap.estimate_bits.reserve(csr.num_nodes() * cfg.components);
  for (std::size_t i = 0; i < csr.num_nodes(); ++i)
    for (std::size_t c = 0; c < cfg.components; ++c)
      snap.estimate_bits.push_back(std::bit_cast<std::uint64_t>(eng.estimate(i, c)));
  snap.mass = eng.mass_summary();
  return snap;
}

void expect_bit_identical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.estimate_bits, b.estimate_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.sim_time),
            std::bit_cast<std::uint64_t>(b.result.sim_time));
  EXPECT_EQ(a.result.converged, b.result.converged);
  EXPECT_EQ(a.result.events, b.result.events);
  EXPECT_EQ(a.result.windows, b.result.windows);
  EXPECT_EQ(a.result.pushes, b.result.pushes);
  EXPECT_EQ(a.result.deliveries, b.result.deliveries);
  EXPECT_EQ(a.result.sends, b.result.sends);
  EXPECT_EQ(a.result.wire_bytes, b.result.wire_bytes);
  EXPECT_EQ(a.result.pushes_skipped_down, b.result.pushes_skipped_down);
  EXPECT_EQ(a.result.drops_loss, b.result.drops_loss);
  EXPECT_EQ(a.result.drops_blocked, b.result.drops_blocked);
  EXPECT_EQ(a.result.drops_blocked_in_flight, b.result.drops_blocked_in_flight);
  EXPECT_EQ(a.result.drops_receiver_down, b.result.drops_receiver_down);
  EXPECT_EQ(a.result.triplets_unmatched, b.result.triplets_unmatched);
  ASSERT_EQ(a.result.error_curve.size(), b.result.error_curve.size());
  for (std::size_t s = 0; s < a.result.error_curve.size(); ++s) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.result.error_curve[s].second),
              std::bit_cast<std::uint64_t>(b.result.error_curve[s].second))
        << "error-curve sample " << s;
  }
}

TEST(ShardedGossip, ConvergesToTruthOnSmallOverlay) {
  const graph::Graph g = make_overlay(64, 11);
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  ShardedGossip eng(csr, cfg);
  eng.initialize_fig3(7);
  const double truth0 = eng.truth(0);
  const ShardedGossipResult res = eng.run();
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.events, 0u);
  for (std::size_t i = 0; i < csr.num_nodes(); ++i)
    for (std::size_t c = 0; c < cfg.components; ++c)
      EXPECT_NEAR(eng.estimate(i, c), eng.truth(static_cast<std::uint32_t>(c)),
                  5e-3)
          << "node " << i << " comp " << c;
  EXPECT_TRUE(std::isfinite(truth0));
}

// The acceptance matrix from the issue: n in {64, 512}, threads in
// {1, 2, 8}, every run bit-identical to the shards = 1 oracle.
TEST(ShardedGossip, ShardedMatchesSingleQueueOracle) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{512}}) {
    const graph::Graph g = make_overlay(n, 17 + n);
    const graph::CsrView csr(g);
    ShardedGossipConfig oracle_cfg = base_config();
    oracle_cfg.shards = 1;
    oracle_cfg.threads = 1;
    const RunSnapshot oracle = run_once(csr, oracle_cfg);
    EXPECT_TRUE(oracle.result.converged) << "n=" << n;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ShardedGossipConfig cfg = base_config();
      cfg.shards = 0;  // one shard per thread
      cfg.threads = threads;
      const RunSnapshot sharded = run_once(csr, cfg);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      expect_bit_identical(oracle, sharded);
    }
  }
}

// Shard count decoupled from thread count: an odd shard grid on few
// threads still replays the oracle trajectory exactly.
TEST(ShardedGossip, OddShardGridMatchesOracle) {
  const graph::Graph g = make_overlay(96, 5);
  const graph::CsrView csr(g);
  ShardedGossipConfig oracle_cfg = base_config();
  oracle_cfg.shards = 1;
  oracle_cfg.threads = 1;
  const RunSnapshot oracle = run_once(csr, oracle_cfg);
  ShardedGossipConfig cfg = base_config();
  cfg.shards = 7;
  cfg.threads = 2;
  expect_bit_identical(oracle, run_once(csr, cfg));
}

TEST(ShardedGossip, BitIdenticalUnderFaultPlanWithPartition) {
  for (const std::size_t n : {std::size_t{64}, std::size_t{512}}) {
    const graph::Graph g = make_overlay(n, 23 + n);
    const graph::CsrView csr(g);
    fault::FaultPlan plan;
    plan.crash(3.0, 1).recover(20.0, 1);
    plan.crash(5.0, n - 1);
    plan.bisect(8.0, 30.0, n, n / 2);
    plan.loss_burst(12.0, 25.0, 0.3);
    plan.fail_link(2.0, 0, 2).heal_link(40.0, 0, 2);

    ShardedGossipConfig oracle_cfg = base_config();
    oracle_cfg.shards = 1;
    oracle_cfg.threads = 1;
    const RunSnapshot oracle = run_once(csr, oracle_cfg, &plan);
    // Faults must actually bite for this test to mean anything.
    EXPECT_GT(oracle.result.pushes_skipped_down, 0u) << "n=" << n;
    EXPECT_GT(oracle.result.drops_loss, 0u) << "n=" << n;
    EXPECT_GT(oracle.result.drops_blocked, 0u) << "n=" << n;

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ShardedGossipConfig cfg = base_config();
      cfg.shards = 0;
      cfg.threads = threads;
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " threads=" + std::to_string(threads));
      expect_bit_identical(oracle, run_once(csr, cfg, &plan));
    }
  }
}

TEST(ShardedGossip, MassConservedWithoutFaults) {
  const graph::Graph g = make_overlay(128, 31);
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  cfg.threads = 4;
  const RunSnapshot snap = run_once(csr, cfg);
  EXPECT_LT(snap.mass.max_gap(), 1e-9);
  for (const double d : snap.mass.destroyed_x) EXPECT_EQ(d, 0.0);
  for (const double d : snap.mass.destroyed_w) EXPECT_EQ(d, 0.0);
}

TEST(ShardedGossip, MassLedgerAccountsForEveryDrop) {
  const graph::Graph g = make_overlay(128, 37);
  const graph::CsrView csr(g);
  fault::FaultPlan plan;
  plan.crash(2.0, 3);
  plan.loss_burst(1.0, 50.0, 0.25);
  plan.bisect(4.0, 40.0, 128, 64);
  ShardedGossipConfig cfg = base_config();
  cfg.threads = 4;
  const RunSnapshot snap = run_once(csr, cfg, &plan);
  // Drops destroy mass; the ledger must still reconcile to the initial
  // totals: resident + in_flight + destroyed == initial per component.
  EXPECT_GT(snap.result.drops_loss + snap.result.drops_blocked +
                snap.result.drops_blocked_in_flight +
                snap.result.drops_receiver_down,
            0u);
  EXPECT_LT(snap.mass.max_gap(), 1e-9);
  double destroyed = 0.0;
  for (const double d : snap.mass.destroyed_w) destroyed += d;
  EXPECT_GT(destroyed, 0.0);
}

TEST(ShardedGossip, RejectsDuplicationAndCorruptionPlans) {
  const graph::Graph g = make_overlay(16, 3);
  const graph::CsrView csr(g);
  ShardedGossip eng(csr, base_config());
  eng.initialize_fig3(7);
  fault::FaultPlan dup;
  dup.duplication_burst(1.0, 2.0, 0.5);
  EXPECT_THROW(eng.set_fault_plan(dup), std::invalid_argument);
  fault::FaultPlan corr;
  corr.corruption_burst(1.0, 2.0, 0.5);
  EXPECT_THROW(eng.set_fault_plan(corr), std::invalid_argument);
}

// Heterogeneous component sets: mass pushed to a node that does not track
// the component is not silently dropped — it lands in the destroyed
// ledger as unmatched triplets and the global ledger still reconciles.
TEST(ShardedGossip, UnmatchedTripletsRouteToLedger) {
  const std::size_t n = 64;
  const graph::Graph g = make_overlay(n, 41);
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  cfg.components = 2;
  cfg.horizon = 50.0;
  ShardedGossip eng(csr, cfg);
  std::vector<std::uint32_t> comp(n * 2);
  std::vector<double> x0(n * 2, 1.0), w0(n * 2, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    comp[i * 2 + 0] = 0;
    // Half the nodes track component 1, the other half component 2.
    comp[i * 2 + 1] = (i % 2 == 0) ? 1u : 2u;
  }
  eng.initialize(comp, x0, w0);
  const ShardedGossipResult res = eng.run();
  EXPECT_GT(res.triplets_unmatched, 0u);
  EXPECT_LT(eng.mass_summary().max_gap(), 1e-9);
}

TEST(ShardedGossip, Fig3TruthIsNetworkMeanShare) {
  const std::size_t n = 50;
  const graph::Graph g = make_overlay(n, 43);
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  ShardedGossip eng(csr, cfg);
  std::vector<std::uint32_t> comp(n * cfg.components);
  std::vector<double> x0(n * cfg.components), w0(n * cfg.components, 1.0);
  double sum0 = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < cfg.components; ++c) {
      comp[i * cfg.components + c] = static_cast<std::uint32_t>(c);
      x0[i * cfg.components + c] = static_cast<double>(i * cfg.components + c);
      if (c == 0) sum0 += x0[i * cfg.components + c];
    }
  eng.initialize(comp, x0, w0);
  EXPECT_DOUBLE_EQ(eng.truth(0), sum0 / static_cast<double>(n));
}

TEST(ShardedGossip, IsolatedNodeKeepsItsOwnValueAndRunTerminates) {
  graph::Graph g(9);
  // A path 0-1-...-7 plus node 8 fully isolated.
  for (std::size_t v = 0; v + 1 < 8; ++v)
    g.add_edge(static_cast<graph::NodeId>(v), static_cast<graph::NodeId>(v + 1));
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  cfg.components = 1;
  ShardedGossip eng(csr, cfg);
  std::vector<std::uint32_t> comp(9, 0);
  std::vector<double> x0(9, 1.0), w0(9, 1.0);
  x0[8] = 5.0;
  eng.initialize(comp, x0, w0);
  const ShardedGossipResult res = eng.run();
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(eng.estimate(8, 0), 5.0);
}

TEST(ShardedGossip, ValidatesConfigAndLifecycle) {
  const graph::Graph g = make_overlay(8, 2);
  const graph::CsrView csr(g);
  ShardedGossipConfig cfg = base_config();
  cfg.components = 0;
  EXPECT_THROW(ShardedGossip(csr, cfg), std::invalid_argument);
  cfg = base_config();
  cfg.base_latency = 0.0;
  EXPECT_THROW(ShardedGossip(csr, cfg), std::invalid_argument);

  // Values under which run() could never converge or never stop.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto rejects = [&](auto&& mutate, const char* what) {
    ShardedGossipConfig bad = base_config();
    mutate(bad);
    EXPECT_THROW(ShardedGossip(csr, bad), std::invalid_argument) << what;
  };
  rejects([](auto& c) { c.stable_rounds = 0; }, "stable_rounds 0");
  rejects([](auto& c) { c.stable_rounds = 65536; }, "stable_rounds 65536");
  rejects([&](auto& c) { c.epsilon = kNaN; }, "epsilon NaN");
  rejects([&](auto& c) { c.epsilon = kInf; }, "epsilon inf");
  rejects([](auto& c) { c.epsilon = -1e-3; }, "epsilon negative");
  rejects([&](auto& c) { c.horizon = kNaN; }, "horizon NaN");
  rejects([&](auto& c) { c.horizon = kInf; }, "horizon inf");
  rejects([](auto& c) { c.horizon = 0.0; }, "horizon 0");
  rejects([](auto& c) { c.horizon = -5.0; }, "horizon negative");
  rejects([&](auto& c) { c.period = kInf; }, "period inf");
  rejects([&](auto& c) { c.base_latency = kNaN; }, "base_latency NaN");
  // The edges of the accepted ranges still construct.
  cfg = base_config();
  cfg.stable_rounds = 65535;
  cfg.epsilon = 0.0;
  EXPECT_NO_THROW(ShardedGossip(csr, cfg));

  cfg = base_config();
  ShardedGossip eng(csr, cfg);
  EXPECT_THROW(eng.run(), std::logic_error);  // not initialized
  eng.initialize_fig3(1);
  (void)eng.run();
  EXPECT_THROW(eng.run(), std::logic_error);  // one run per instance
}

}  // namespace
}  // namespace gt::gossip
