#include "gossip/vector_gossip.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/powerlaw.hpp"
#include "common/stats.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::gossip {
namespace {

/// Builds a normalized trust matrix from an honest workload of n peers.
trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(50, n - 1);
  cfg.d_avg = std::min(10.0, static_cast<double>(n) / 3.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

PushSumConfig tight() {
  PushSumConfig cfg;
  cfg.epsilon = 1e-8;
  cfg.stable_rounds = 3;
  return cfg;
}

TEST(VectorGossip, MatchesExactTransposeProduct) {
  const std::size_t n = 48;
  const auto s = make_matrix(n, 1);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);

  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(2);
  const auto res = vg.run(rng);
  EXPECT_TRUE(res.converged);
  for (NodeId i : {NodeId{0}, NodeId{n / 2}, NodeId{n - 1}}) {
    const auto view = vg.node_view(i);
    for (NodeId j = 0; j < n; ++j)
      EXPECT_NEAR(view[j], exact[j], 1e-5) << "node " << i << " comp " << j;
  }
}

TEST(VectorGossip, AllNodesAgreeAfterConvergence) {
  const std::size_t n = 40;
  const auto s = make_matrix(n, 3);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(4);
  EXPECT_TRUE(vg.run(rng).converged);
  for (NodeId a = 1; a < n; a += 7)
    EXPECT_LT(vg.max_view_disagreement(0, a), 1e-5);
}

TEST(VectorGossip, MassConservationInvariant) {
  const std::size_t n = 32;
  const auto s = make_matrix(n, 5);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  const auto exact = s.transpose_multiply(v);

  Rng rng(6);
  VectorGossipResult res;
  for (int step = 0; step < 15; ++step) {
    vg.step(rng, nullptr, res);
    for (NodeId j = 0; j < n; j += 5) {
      // Column x mass equals the exact component; w mass stays exactly 1.
      EXPECT_NEAR(vg.column_x_mass(j), exact[j], 1e-12);
      EXPECT_NEAR(vg.column_w_mass(j), 1.0, 1e-12);
    }
  }
}

TEST(VectorGossip, DanglingRowSpreadsUniformMass) {
  // 3 nodes; node 2 issued no feedback.
  trust::SparseMatrix::Builder b(3);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const auto s = std::move(b).build().row_normalized();
  std::vector<double> v{1.0 / 3, 1.0 / 3, 1.0 / 3};

  VectorGossip vg(3, tight());
  vg.initialize(s, v);
  const auto exact = s.transpose_multiply(v);
  Rng rng(7);
  EXPECT_TRUE(vg.run(rng).converged);
  const auto view = vg.node_view(0);
  for (NodeId j = 0; j < 3; ++j) EXPECT_NEAR(view[j], exact[j], 1e-6);
}

TEST(VectorGossip, StepCountLogarithmicInN) {
  for (const std::size_t n : {32u, 128u}) {
    const auto s = make_matrix(n, 8);
    std::vector<double> v(n, 1.0 / static_cast<double>(n));
    PushSumConfig cfg;
    cfg.epsilon = 1e-4;
    cfg.stable_rounds = 2;
    VectorGossip vg(n, cfg);
    vg.initialize(s, v);
    Rng rng(9);
    const auto res = vg.run(rng);
    EXPECT_TRUE(res.converged);
    EXPECT_GE(res.steps, static_cast<std::size_t>(std::log2(n)));
    EXPECT_LE(res.steps, 14 * static_cast<std::size_t>(std::log2(n)));
  }
}

TEST(VectorGossip, TighterEpsilonNeedsMoreSteps) {
  const std::size_t n = 64;
  const auto s = make_matrix(n, 10);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  std::size_t steps_loose = 0, steps_tight = 0;
  for (const double eps : {1e-2, 1e-8}) {
    PushSumConfig cfg;
    cfg.epsilon = eps;
    cfg.stable_rounds = 2;
    VectorGossip vg(n, cfg);
    vg.initialize(s, v);
    Rng rng(11);
    const auto res = vg.run(rng);
    (eps == 1e-2 ? steps_loose : steps_tight) = res.steps;
  }
  EXPECT_GT(steps_tight, steps_loose);
}

TEST(VectorGossip, MessageAndTripletAccounting) {
  const std::size_t n = 16;
  const auto s = make_matrix(n, 12);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  Rng rng(13);
  VectorGossipResult res;
  vg.step(rng, nullptr, res);
  EXPECT_EQ(res.messages_sent, n);
  EXPECT_GT(res.triplets_sent, 0u);
  // A message can never carry more triplets than components.
  EXPECT_LE(res.triplets_sent, n * n);
}

TEST(VectorGossip, LossyGossipStaysNearTarget) {
  const std::size_t n = 64;
  const auto s = make_matrix(n, 14);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  const auto exact = s.transpose_multiply(v);
  PushSumConfig cfg = tight();
  cfg.loss_probability = 0.05;
  VectorGossip vg(n, cfg);
  vg.initialize(s, v);
  Rng rng(15);
  const auto res = vg.run(rng);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.messages_lost, 0u);
  const auto view = vg.node_view(0);
  // Relative ranking must survive; absolute values drift only slightly.
  EXPECT_LT(rms_relative_error(exact, view), 0.25);
}

TEST(VectorGossip, EstimateUndefinedBeforeFirstStep) {
  const std::size_t n = 8;
  const auto s = make_matrix(n, 16);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  VectorGossip vg(n, tight());
  vg.initialize(s, v);
  // Node 0 holds w only for component 0 at t=0.
  EXPECT_FALSE(std::isnan(vg.estimate(0, 0)));
  EXPECT_TRUE(std::isnan(vg.estimate(0, 1)));
}

TEST(VectorGossip, RejectsBadSizes) {
  EXPECT_THROW(VectorGossip(0, PushSumConfig{}), std::invalid_argument);
  VectorGossip vg(4, PushSumConfig{});
  const auto s = make_matrix(8, 17);
  std::vector<double> v(8, 0.125);
  EXPECT_THROW(vg.initialize(s, v), std::invalid_argument);
}

TEST(VectorGossip, RejectsBadConfig) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto rejects = [](auto mutate) {
    PushSumConfig cfg;
    mutate(cfg);
    return [cfg] { VectorGossip vg(4, cfg); };
  };
  for (const double eps : {0.0, -1e-4, kNaN, kInf})
    EXPECT_THROW(rejects([eps](PushSumConfig& c) { c.epsilon = eps; })(),
                 std::invalid_argument)
        << "epsilon " << eps;
  for (const double p : {-0.1, 1.5, kNaN, kInf})
    EXPECT_THROW(
        rejects([p](PushSumConfig& c) { c.loss_probability = p; })(),
        std::invalid_argument)
        << "loss_probability " << p;
  EXPECT_THROW(rejects([](PushSumConfig& c) { c.stable_rounds = 0; })(),
               std::invalid_argument);
  EXPECT_THROW(rejects([](PushSumConfig& c) { c.max_steps = 0; })(),
               std::invalid_argument);
  // The edges of every range are valid.
  PushSumConfig edge;
  edge.loss_probability = 1.0;
  edge.stable_rounds = 1;
  edge.max_steps = 1;
  EXPECT_NO_THROW(VectorGossip(4, edge));
  edge.loss_probability = 0.0;
  EXPECT_NO_THROW(VectorGossip(4, edge));
}

TEST(VectorGossip, ReinitializeResetsRunAndMetrics) {
  // A second initialize() on the same instance starts a fresh run: the
  // same input and seed give the same result as a new instance, and the
  // registry counts the second run only.
  const std::size_t n = 24;
  const auto s = make_matrix(n, 18);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  PushSumConfig cfg = tight();
  cfg.loss_probability = 0.05;
  VectorGossip reused(n, cfg);
  std::vector<std::uint8_t> alive(n, 1);
  alive[2] = 0;
  reused.set_participants(alive);
  reused.initialize(s, v);
  Rng dirty(19);
  reused.run(dirty);
  reused.set_participants({});
  reused.initialize(s, v);
  Rng r1(20);
  const auto a = reused.run(r1);

  VectorGossip fresh(n, cfg);
  fresh.initialize(s, v);
  Rng r2(20);
  const auto b = fresh.run(r2);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_lost, b.messages_lost);
  EXPECT_EQ(a.triplets_sent, b.triplets_sent);
  EXPECT_EQ(a.active_triplets, b.active_triplets);
  EXPECT_EQ(a.zero_components_skipped, b.zero_components_skipped);
  const auto ma = reused.consensus_means();
  const auto mb = fresh.consensus_means();
  ASSERT_EQ(ma.size(), mb.size());
  EXPECT_EQ(std::memcmp(ma.data(), mb.data(), ma.size() * sizeof(double)), 0);
  const auto snap = reused.metrics().snapshot();
  EXPECT_EQ(*snap.counter("gossip.messages_sent"), a.messages_sent);
  EXPECT_EQ(*snap.counter("gossip.triplets_sent"), a.triplets_sent);
  EXPECT_EQ(snap.histogram("gossip.send_phase_seconds")->count, a.steps);
}

}  // namespace
}  // namespace gt::gossip
