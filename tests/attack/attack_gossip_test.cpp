// Bit-identity and mass-ledger contracts of the gossip-layer adversary
// hooks (src/gossip/adversary.hpp):
//   * an empty AttackPlan / all-honest adversary must leave every RNG
//     stream untouched — same seed, bit-identical results;
//   * a liar *mints* x mass, but only in its own column, and the ledgers
//     account for every counterfeit unit;
//   * withholding starves mixing without destroying mass;
//   * attacks compose with crash+partition FaultPlans and stay
//     deterministic at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "attack/attack_injector.hpp"
#include "attack/attack_plan.hpp"
#include "attack/attack_state.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "gossip/async_gossip.hpp"
#include "gossip/vector_gossip.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::attack {
namespace {

trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(40, n - 1);
  cfg.d_avg = std::min(10.0, static_cast<double>(n) / 3.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

TEST(AttackGossip, EmptyPlanIsBitIdenticalAsync) {
  const std::size_t n = 24;
  auto run = [&](bool with_adversary) {
    sim::Scheduler sched;
    net::NetworkConfig ncfg;
    ncfg.base_latency = 0.2;
    ncfg.jitter = 0.1;
    net::Network network(sched, n, ncfg, Rng(11));
    gossip::PushSumConfig cfg;
    cfg.epsilon = 1e-7;
    cfg.stable_rounds = 3;
    gossip::AsyncGossip gossip(sched, network, cfg,
                               gossip::AsyncGossip::Timing{});
    AttackInjector injector(sched, network, AttackPlan{});
    if (with_adversary) {
      gossip.set_adversary(&injector.state());
      injector.arm();
    }
    gossip.initialize(make_matrix(n, 12), std::vector<double>(n, 1.0 / n));
    Rng rng(13);
    gossip.run(rng);
    sched.run_until();
    return gossip.node_view(0);
  };
  const auto honest = run(false);
  const auto hooked = run(true);
  ASSERT_EQ(honest.size(), hooked.size());
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(honest[j], hooked[j]) << "component " << j;  // exact, not near
}

TEST(AttackGossip, AllHonestAdversaryIsBitIdenticalSync) {
  const std::size_t n = 32;
  const auto s = make_matrix(n, 21);
  const std::vector<double> v(n, 1.0 / n);
  auto run = [&](bool with_adversary) {
    gossip::PushSumConfig cfg;
    cfg.epsilon = 1e-8;
    gossip::VectorGossip gossip(n, cfg);
    std::vector<double> honest_scale(n, 1.0);
    std::vector<std::uint8_t> no_withhold(n, 0);
    if (with_adversary) gossip.set_adversary(honest_scale, no_withhold);
    gossip.initialize(s, v);
    Rng rng(22);
    gossip.run(rng);
    return gossip.node_view(n / 2);
  };
  const auto honest = run(false);
  const auto hooked = run(true);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(honest[j], hooked[j]) << "component " << j;
}

TEST(AttackGossip, LiarMintsMassOnlyInItsOwnColumn) {
  const std::size_t n = 24;
  const NodeId liar = 5;
  const auto s = make_matrix(n, 31);
  const std::vector<double> v(n, 1.0 / n);
  const auto exact = s.transpose_multiply(v);  // honest column x masses

  gossip::VectorGossip gossip(n, gossip::PushSumConfig{});
  std::vector<double> scale(n, 1.0);
  scale[liar] = 2.5;
  gossip.set_adversary(scale, {});
  gossip.initialize(s, v);
  Rng rng(32);
  gossip.run(rng);

  for (NodeId j = 0; j < n; ++j) {
    if (j == liar) {
      EXPECT_GT(gossip.column_x_mass(j), exact[j] + 1e-6)
          << "the liar's own column must carry minted mass";
    } else {
      EXPECT_NEAR(gossip.column_x_mass(j), exact[j], 1e-9)
          << "honest column " << j << " must be conserved";
    }
  }
}

TEST(AttackGossip, WithholderConservesEveryColumn) {
  const std::size_t n = 24;
  const auto s = make_matrix(n, 41);
  const std::vector<double> v(n, 1.0 / n);
  const auto exact = s.transpose_multiply(v);

  gossip::VectorGossip gossip(n, gossip::PushSumConfig{});
  std::vector<std::uint8_t> withhold(n, 0);
  withhold[3] = withhold[7] = 1;
  gossip.set_adversary({}, withhold);
  gossip.initialize(s, v);
  Rng rng(42);
  const auto res = gossip.run(rng);

  for (NodeId j = 0; j < n; ++j)
    EXPECT_NEAR(gossip.column_x_mass(j), exact[j], 1e-9)
        << "withholding must starve mixing, not destroy mass (col " << j
        << ")";
  // Every push leaves its zero pairs off the wire, and a withholder ships
  // one component, so each of its pushes skips at least n - 1.
  const std::uint64_t n64 = n;
  EXPECT_EQ(res.zero_components_skipped,
            res.messages_sent * n64 - res.triplets_sent);
  EXPECT_GE(res.zero_components_skipped, 2 * res.steps * (n64 - 1));
}

// Satellite: an AttackPlan layered on a crash+partition FaultPlan. The
// async kernel's per-component ledger identity must still close to 1e-9
// (liar-minted mass is ledgered in injected_x, honest mass in the usual
// resident/in-flight/destroyed/repaired accounts), and the composed run
// must be deterministic: two executions produce byte-identical views and
// attack logs.
TEST(AttackGossip, ComposesWithCrashAndPartitionFaultPlan) {
  const std::size_t n = 30;
  struct Outcome {
    std::vector<double> view;
    std::string attack_log, fault_log;
    double invariant_gap = 0.0;
  };
  auto run = [&] {
    sim::Scheduler sched;
    net::NetworkConfig ncfg;
    ncfg.base_latency = 0.2;
    ncfg.jitter = 0.1;
    net::Network network(sched, n, ncfg, Rng(51));

    fault::FaultPlan faults;
    faults.crash_fraction(5.0, n, n / 10, 0xc0ffee);
    faults.bisect(10.0, 40.0, n, n / 2);

    AttackPlan attacks;
    attacks.liar(8.0, 30.0, 1, 3.0).withhold(12.0, 35.0, 2);

    gossip::PushSumConfig cfg;
    cfg.epsilon = 1e-7;
    cfg.stable_rounds = 3;
    gossip::AsyncGossip::Timing timing;
    timing.timeout = 600.0;
    timing.min_time = 60.0;  // outlive the partition window
    gossip::AsyncGossip::Reliability rel;
    rel.acks = true;
    rel.ack_timeout = 2.0;
    rel.backoff = 2.0;
    rel.max_timeout = 8.0;
    rel.max_retries = 3;
    rel.repair_on_crash = true;
    gossip::AsyncGossip gossip(sched, network, cfg, timing, rel);

    fault::FaultInjector fault_injector(sched, network, faults);
    fault_injector.on_crash([&](fault::NodeId v) { gossip.notify_crash(v); });
    fault_injector.on_recover(
        [&](fault::NodeId v) { gossip.notify_recover(v); });
    AttackInjector attack_injector(sched, network, attacks);
    gossip.set_adversary(&attack_injector.state());
    fault_injector.arm();
    attack_injector.arm();

    gossip.initialize(make_matrix(n, 52), std::vector<double>(n, 1.0 / n));
    Rng rng(53);
    gossip.run(rng);
    sched.run_until();

    Outcome out;
    out.invariant_gap = gossip.mass_invariant_gap();
    net::NodeId probe = 0;
    while (!network.is_node_up(probe)) ++probe;
    out.view = gossip.node_view(probe);
    out.attack_log = attack_injector.log_text();
    out.fault_log = fault_injector.log_text();
    return out;
  };

  const Outcome a = run();
  EXPECT_LT(a.invariant_gap, 1e-9);
  EXPECT_NE(a.attack_log.find("liar_start node=1 factor=3"),
            std::string::npos);

  const Outcome b = run();
  EXPECT_EQ(a.attack_log, b.attack_log);
  EXPECT_EQ(a.fault_log, b.fault_log);
  ASSERT_EQ(a.view.size(), b.view.size());
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(a.view[j], b.view[j]);
}

// Satellite: the same attacked cycle is bit-identical across engine
// thread counts (the sync kernel's determinism contract extends to the
// adversary paths).
TEST(AttackGossip, EngineCyclesThreadCountInvariantUnderAttack) {
  const std::size_t n = 48;
  const auto s = make_matrix(n, 61);
  std::vector<std::uint8_t> alive(n, 1);
  alive[9] = alive[17] = 0;  // crashed mid-campaign
  std::vector<double> scale(n, 1.0);
  scale[4] = 2.5;  // liar
  std::vector<std::uint8_t> withhold(n, 0);
  withhold[6] = 1;

  auto run = [&](std::size_t threads) {
    core::GossipTrustConfig cfg;
    cfg.alpha = 0.15;
    cfg.num_threads = threads;
    core::GossipTrustEngine engine(n, cfg);
    engine.set_gossip_adversary(scale, withhold);
    std::vector<double> v = engine.initial_scores();
    std::vector<core::NodeId> power;
    Rng rng(62);
    for (int cycle = 0; cycle < 3; ++cycle)
      engine.run_cycle(s, v, power, rng, nullptr, &alive);
    return v;
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_EQ(serial[j], parallel[j]) << "component " << j;
}

}  // namespace
}  // namespace gt::attack
