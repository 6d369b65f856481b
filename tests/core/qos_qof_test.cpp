#include "core/qos_qof.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "threat/models.hpp"
#include "trust/feedback.hpp"

namespace gt::core {
namespace {

TEST(ComputeQof, PerfectAgreementScoresOne) {
  trust::FeedbackLedger ledger(4);
  // Rater 0 ranks 1 > 2 > 3, matching the consensus ordering.
  ledger.record(0, 1, 1.0);
  ledger.record(0, 2, 0.6);
  ledger.record(0, 3, 0.1);
  const std::vector<double> global{0.1, 0.5, 0.3, 0.1};
  const auto qof = compute_qof(ledger, global);
  EXPECT_DOUBLE_EQ(qof[0], 1.0);
  EXPECT_DOUBLE_EQ(qof[1], 0.5);  // no ratings: neutral
}

TEST(ComputeQof, InvertedPreferencesScoreZero) {
  trust::FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);  // claims 1 > 2
  ledger.record(0, 2, 0.0);
  const std::vector<double> global{0.2, 0.1, 0.7};  // consensus: 2 > 1
  const auto qof = compute_qof(ledger, global);
  EXPECT_DOUBLE_EQ(qof[0], 0.0);
}

TEST(ComputeQof, ConsensusTiesGetHalfCredit) {
  trust::FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);
  ledger.record(0, 2, 0.0);
  const std::vector<double> global{0.4, 0.3, 0.3};  // consensus indifferent
  const auto qof = compute_qof(ledger, global);
  EXPECT_DOUBLE_EQ(qof[0], 0.5);
}

TEST(ComputeQof, UniformRatingsNeutral) {
  trust::FeedbackLedger ledger(4);
  ledger.record(0, 1, 1.0);
  ledger.record(0, 2, 1.0);  // no expressed preference anywhere
  const std::vector<double> global{0.25, 0.5, 0.25, 0.0};
  const auto qof = compute_qof(ledger, global);
  EXPECT_DOUBLE_EQ(qof[0], 0.5);
}

TEST(ComputeQof, ZeroRatingsAreEvidence) {
  // A colluder rates its mate 1.0 and an honest peer 0.0; the consensus
  // ranks the honest peer far above the colluder's mate.
  trust::FeedbackLedger ledger(3);
  ledger.record(0, 1, 1.0);  // mate
  ledger.record(0, 2, 0.0);  // slandered honest peer
  const std::vector<double> global{0.05, 0.05, 0.9};
  const auto qof = compute_qof(ledger, global);
  EXPECT_DOUBLE_EQ(qof[0], 0.0);
}

TEST(ComputeQof, SizeAndArgumentValidation) {
  trust::FeedbackLedger ledger(2);
  EXPECT_THROW(compute_qof(ledger, std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(compute_qof(ledger, std::vector<double>{0.5, 0.5}, 1),
               std::invalid_argument);
}

trust::FeedbackLedger threat_ledger(std::size_t n, double malicious_frac,
                                    bool collusive,
                                    std::vector<threat::PeerProfile>& peers_out,
                                    std::uint64_t seed) {
  Rng rng(seed);
  threat::ThreatConfig tcfg;
  tcfg.n = n;
  tcfg.malicious_fraction = malicious_frac;
  tcfg.collusive = collusive;
  peers_out = threat::make_population(tcfg, rng);
  trust::FeedbackGenConfig gen;
  gen.n = n;
  gen.d_max = 40;
  gen.d_avg = 12.0;
  trust::FeedbackLedger ledger(n);
  threat::generate_threat_feedback(ledger, peers_out, tcfg, gen, Rng(seed + 1));
  return ledger;
}

TEST(QofWeightedAggregation, ConvergesOnHonestWorkload) {
  std::vector<threat::PeerProfile> peers;
  const auto ledger = threat_ledger(80, 0.0, false, peers, 1);
  const auto res = qof_weighted_aggregation(ledger, 0.15, 0.05);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(sum(res.qos), 1.0, 1e-9);
  // Honest raters lean concordant with consensus. Accumulated (not
  // averaged) raw scores blur comparisons between two good providers, so
  // the margin over the 0.5 coin-flip level is modest on a clean workload;
  // the discrimination tests below check the gap to liars.
  double mean_qof = 0.0;
  for (const auto q : res.qof) mean_qof += q;
  EXPECT_GT(mean_qof / 80.0, 0.5);
}

TEST(QofWeightedAggregation, LiarsGetLowQof) {
  std::vector<threat::PeerProfile> peers;
  const auto ledger = threat_ledger(120, 0.2, false, peers, 3);
  const auto res = qof_weighted_aggregation(ledger, 0.15, 0.05);
  double bad_qof = 0.0, good_qof = 0.0;
  std::size_t bad_n = 0, good_n = 0;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].type == threat::PeerType::kHonest) {
      good_qof += res.qof[i];
      ++good_n;
    } else {
      bad_qof += res.qof[i];
      ++bad_n;
    }
  }
  ASSERT_GT(bad_n, 0u);
  EXPECT_LT(bad_qof / static_cast<double>(bad_n),
            good_qof / static_cast<double>(good_n) * 0.6);
}

TEST(QofWeightedAggregation, CollidersGetLowQof) {
  std::vector<threat::PeerProfile> peers;
  const auto ledger = threat_ledger(150, 0.1, true, peers, 5);
  const auto res = qof_weighted_aggregation(ledger, 0.15, 0.05);
  double bad_qof = 0.0, good_qof = 0.0;
  std::size_t bad_n = 0, good_n = 0;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].type == threat::PeerType::kHonest) {
      good_qof += res.qof[i];
      ++good_n;
    } else {
      bad_qof += res.qof[i];
      ++bad_n;
    }
  }
  ASSERT_GT(bad_n, 0u);
  EXPECT_LT(bad_qof / static_cast<double>(bad_n),
            good_qof / static_cast<double>(good_n) * 0.8);
}

TEST(QofWeightedAggregation, RejectsBadArguments) {
  trust::FeedbackLedger empty(0);
  EXPECT_THROW(qof_weighted_aggregation(empty, 0.15, 0.01), std::invalid_argument);
  trust::FeedbackLedger ledger(2);
  ledger.record(0, 1, 1.0);
  EXPECT_THROW(qof_weighted_aggregation(ledger, 0.15, 0.01, 1e-6, 100, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace gt::core
