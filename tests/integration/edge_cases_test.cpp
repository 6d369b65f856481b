// Edge cases across the stack: degenerate sizes, empty feedback, extreme
// parameters — the inputs a downstream user will eventually feed the
// library, which must degrade predictably rather than crash.
#include <gtest/gtest.h>

#include "baseline/power_iteration.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"
#include "gossip/vector_gossip.hpp"
#include "trust/feedback.hpp"

namespace gt {
namespace {

TEST(EdgeCases, EmptyLedgerAggregatesToUniform) {
  // No feedback at all: every row dangles, the operator is the uniform
  // matrix, and everyone stays at 1/n.
  const std::size_t n = 12;
  trust::FeedbackLedger ledger(n);
  const auto s = ledger.normalized_matrix();
  EXPECT_EQ(s.nonzeros(), 0u);
  core::GossipTrustConfig cfg;
  cfg.alpha = 0.0;  // no teleport: the fixed point is exactly uniform
  cfg.power_node_fraction = 0.0;
  cfg.epsilon = 1e-6;
  core::GossipTrustEngine engine(n, cfg);
  Rng rng(1);
  const auto res = engine.run(s, rng);
  EXPECT_TRUE(res.converged);
  for (const auto v : res.scores) EXPECT_NEAR(v, 1.0 / 12.0, 1e-4);
  // Table 2 defaults (alpha and power nodes on) keep the vector a
  // distribution on the same empty ledger.
  core::GossipTrustEngine defaults(n, core::GossipTrustConfig{});
  Rng rng2(6);
  const auto res2 = defaults.run(s, rng2);
  EXPECT_TRUE(res2.converged);
  EXPECT_NEAR(sum(res2.scores), 1.0, 1e-9);
}

TEST(EdgeCases, SingleFeedbackEntireReputation) {
  // Exactly one rating: 0 -> 1. All trust mass funnels through peer 0's
  // row; every other row dangles uniformly.
  const std::size_t n = 6;
  trust::FeedbackLedger ledger(n);
  ledger.record(0, 1, 1.0);
  const auto s = ledger.normalized_matrix();
  const auto exact = baseline::plain_power_iteration(s);
  EXPECT_TRUE(exact.converged);
  // Peer 1 collects peer 0's whole vote plus its uniform dangling share:
  // strictly the top-scored peer.
  const auto top = top_k_indices(exact.scores, 1);
  EXPECT_EQ(top[0], 1u);

  core::GossipTrustConfig cfg;
  cfg.alpha = 0.0;
  cfg.power_node_fraction = 0.0;
  cfg.delta = 1e-5;
  cfg.epsilon = 1e-7;
  core::GossipTrustEngine engine(n, cfg);
  Rng rng(2);
  const auto res = engine.run(s, rng);
  EXPECT_LT(rms_relative_error(exact.scores, res.scores), 0.01);
}

TEST(EdgeCases, TwoNodeNetwork) {
  trust::FeedbackLedger ledger(2);
  ledger.record(0, 1, 1.0);
  ledger.record(1, 0, 1.0);
  const auto s = ledger.normalized_matrix();
  core::GossipTrustConfig cfg;
  cfg.alpha = 0.0;
  cfg.power_node_fraction = 0.0;
  core::GossipTrustEngine engine(2, cfg);
  Rng rng(3);
  const auto res = engine.run(s, rng);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.scores[0], 0.5, 1e-3);
  EXPECT_NEAR(res.scores[1], 0.5, 1e-3);
}

TEST(EdgeCases, VectorGossipSingleParticipant) {
  gossip::PushSumConfig cfg;
  gossip::VectorGossip vg(4, cfg);
  vg.set_participants({1, 0, 0, 0});  // only node 0 is alive
  trust::FeedbackLedger ledger(4);
  ledger.record(0, 1, 1.0);
  const std::vector<double> v(4, 0.25);
  vg.initialize(ledger.normalized_matrix(), v);
  Rng rng(4);
  const auto res = vg.run(rng);
  // The lone node has nobody to gossip with but still stabilizes on its
  // own component.
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.messages_sent, 0u);
}

TEST(EdgeCases, VectorGossipRejectsEmptyParticipantSet) {
  gossip::VectorGossip vg(3, gossip::PushSumConfig{});
  EXPECT_THROW(vg.set_participants({0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(vg.set_participants({1, 1}), std::invalid_argument);
}

TEST(EdgeCases, ExtremeAlphaOne) {
  // alpha = 1: all reputation teleports to the power nodes each cycle.
  const std::size_t n = 20;
  trust::FeedbackLedger ledger(n);
  for (std::size_t i = 1; i < n; ++i) ledger.record(i, 0, 1.0);
  const auto s = ledger.normalized_matrix();
  core::GossipTrustConfig cfg;
  cfg.alpha = 1.0;
  cfg.power_node_fraction = 0.05;  // exactly one power node
  core::GossipTrustEngine engine(n, cfg);
  Rng rng(5);
  const auto res = engine.run(s, rng);
  ASSERT_EQ(res.power_nodes.size(), 1u);
  EXPECT_NEAR(res.scores[res.power_nodes[0]], 1.0, 1e-9);
}

TEST(EdgeCases, MeanRelativeErrorSkipsVanishedComponents) {
  // Regression for the convergence-stall bug: components decayed to ~0 on
  // both sides must not keep reporting |delta|/floor forever.
  const std::vector<double> prev{0.5, 0.5, 2e-13};
  const std::vector<double> next{0.5, 0.5, 1e-13};
  EXPECT_DOUBLE_EQ(mean_relative_error(next, prev), 0.0);
  // ...but a component that is small on one side only still counts.
  const std::vector<double> revived{0.5, 0.5, 1e-3};
  EXPECT_GT(mean_relative_error(revived, prev), 0.0);
}

}  // namespace
}  // namespace gt
