#include "baseline/spectral.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "baseline/power_iteration.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::baseline {
namespace {

trust::SparseMatrix workload_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(60, n / 2);
  cfg.d_avg = 15.0;
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

TEST(Spectral, StochasticMatrixHasUnitDominantEigenvalue) {
  const auto s = workload_matrix(100, 1);
  const auto est = estimate_spectral_gap(s);
  // Row-stochastic with dangling redistribution: column sums of the
  // effective operator are 1, so lambda1 = 1. Orthogonal iteration uses
  // the 2-norm, allow modest tolerance.
  EXPECT_NEAR(est.lambda1, 1.0, 0.15);
  EXPECT_LT(est.lambda2, est.lambda1);
  EXPECT_GT(est.ratio(), 0.0);
  EXPECT_LT(est.ratio(), 1.0);
}

TEST(Spectral, RankOneMatrixHasZeroGap) {
  // Every row identical -> S^T has rank 1 -> lambda2 = 0.
  const std::size_t n = 8;
  trust::SparseMatrix::Builder b(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (i != j) b.add(i, j, 1.0);
  const auto s = std::move(b).build().row_normalized();
  const auto est = estimate_spectral_gap(s);
  // Not exactly rank one (diagonal holes), but close: tiny lambda2.
  EXPECT_LT(est.ratio(), 0.35);
}

TEST(Spectral, PeriodicChainHasNoGap) {
  // S = [[0,1],[1,0]]: eigenvalues {1, -1} -> |lambda2| = 1, no contraction.
  trust::SparseMatrix::Builder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 1.0);
  const auto s = std::move(b).build();
  const auto est = estimate_spectral_gap(s, 50);
  EXPECT_NEAR(est.lambda2, 1.0, 0.05);
  EXPECT_EQ(est.predicted_cycles(1e-3), static_cast<std::size_t>(-1));
}

TEST(Spectral, PredictedCyclesFormula) {
  SpectralEstimate est;
  est.lambda1 = 1.0;
  est.lambda2 = 0.1;  // b = 0.1: each cycle gains one decimal digit
  EXPECT_EQ(est.predicted_cycles(1e-3), 3u);
  EXPECT_EQ(est.predicted_cycles(1e-6), 6u);
  EXPECT_THROW(est.predicted_cycles(0.0), std::invalid_argument);
  EXPECT_THROW(est.predicted_cycles(2.0), std::invalid_argument);
}

TEST(Spectral, BoundTracksMeasuredEngineCycles) {
  // The paper: d <= ceil(log_b delta). The engine stops on the mean
  // relative CHANGE of V rather than the true error, and the alpha mix
  // perturbs the operator, so we check the bound as an order-of-magnitude
  // predictor (within 3x + constant slack), on the undamped iteration.
  const auto s = workload_matrix(120, 3);
  const auto est = estimate_spectral_gap(s);
  const double delta = 1e-4;
  const auto predicted = est.predicted_cycles(delta);
  ASSERT_GT(predicted, 0u);
  ASSERT_LT(predicted, 200u);

  core::GossipTrustConfig cfg;
  cfg.alpha = 0.0;
  cfg.power_node_fraction = 0.0;
  cfg.delta = delta;
  cfg.epsilon = 1e-7;
  core::GossipTrustEngine engine(120, cfg);
  Rng rng(4);
  const auto run = engine.run(s, rng);
  ASSERT_TRUE(run.converged);
  EXPECT_LE(run.num_cycles(), 3 * predicted + 5);
  EXPECT_GE(run.num_cycles() + 3, predicted / 3);
}

TEST(Spectral, CycleBoundHoldsOverSeedSweep) {
  // Section 4.1's d <= ceil(log_b delta), asserted per seed on the
  // undamped iteration. The engine stops on the mean relative CHANGE of V,
  // not the error itself, which is worth a cycle or two: the same +2 slack
  // bench_theory_convergence reports.
  const std::size_t n = 150;
  const double delta = 1e-4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto s = workload_matrix(n, seed);
    const auto est = estimate_spectral_gap(s);
    const std::size_t predicted = est.predicted_cycles(delta);
    const std::size_t bound =
        predicted > std::numeric_limits<std::size_t>::max() - 2 ? predicted
                                                                 : predicted + 2;

    core::GossipTrustConfig cfg;
    cfg.alpha = 0.0;
    cfg.power_node_fraction = 0.0;
    cfg.delta = delta;
    cfg.epsilon = 1e-6;
    core::GossipTrustEngine engine(n, cfg);
    Rng rng(seed);
    const auto run = engine.run(s, rng);
    EXPECT_TRUE(run.converged) << "seed " << seed;
    EXPECT_LE(run.num_cycles(), bound)
        << "seed " << seed << ": lambda2/lambda1 " << est.ratio()
        << ", predicted " << predicted;
  }
}

TEST(Spectral, TighterGapConvergesFaster) {
  // A near-uniform matrix (small lambda2) needs fewer cycles than a
  // sparse clustered one (large lambda2).
  const auto sparse = workload_matrix(100, 5);
  // Dense uniform-ish matrix: everyone rates everyone equally.
  trust::SparseMatrix::Builder b(100);
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = 0; j < 100; ++j)
      if (i != j) b.add(i, j, 1.0);
  const auto dense = std::move(b).build().row_normalized();
  EXPECT_LT(estimate_spectral_gap(dense).ratio(),
            estimate_spectral_gap(sparse).ratio());
}

TEST(Spectral, RejectsEmpty) {
  trust::SparseMatrix::Builder b(0);
  EXPECT_THROW(estimate_spectral_gap(std::move(b).build()), std::invalid_argument);
}

}  // namespace
}  // namespace gt::baseline
