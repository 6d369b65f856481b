#include "threat/models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace gt::threat {
namespace {

ThreatConfig base_config() {
  ThreatConfig cfg;
  cfg.n = 200;
  cfg.malicious_fraction = 0.2;
  return cfg;
}

std::size_t count_malicious(const std::vector<PeerProfile>& peers) {
  return static_cast<std::size_t>(
      std::count_if(peers.begin(), peers.end(), [](const PeerProfile& p) {
        return p.type != PeerType::kHonest;
      }));
}

TEST(MakePopulation, IndependentSettingCounts) {
  Rng rng(1);
  const auto peers = make_population(base_config(), rng);
  ASSERT_EQ(peers.size(), 200u);
  std::size_t bad = 0;
  for (const auto& p : peers) {
    if (p.type == PeerType::kIndependentMalicious) {
      ++bad;
      EXPECT_LE(p.service_quality, 0.2);
      EXPECT_EQ(p.collusion_group, -1);
    } else {
      EXPECT_EQ(p.type, PeerType::kHonest);
      EXPECT_GE(p.service_quality, 0.8);
    }
  }
  EXPECT_EQ(bad, 40u);
}

TEST(MakePopulation, CollusiveGroupsPartitioned) {
  Rng rng(2);
  auto cfg = base_config();
  cfg.collusive = true;
  cfg.collusion_group_size = 8;
  const auto peers = make_population(cfg, rng);
  std::set<int> groups;
  std::size_t bad = 0;
  for (const auto& p : peers) {
    if (p.type == PeerType::kCollusive) {
      ++bad;
      EXPECT_GE(p.collusion_group, 0);
      groups.insert(p.collusion_group);
    }
  }
  EXPECT_EQ(bad, 40u);
  EXPECT_EQ(groups.size(), 5u);  // 40 colluders / group size 8
}

TEST(MakePopulation, ZeroMaliciousAllHonest) {
  Rng rng(3);
  ThreatConfig cfg;
  cfg.n = 50;
  cfg.malicious_fraction = 0.0;
  const auto peers = make_population(cfg, rng);
  for (const auto& p : peers) EXPECT_EQ(p.type, PeerType::kHonest);
  EXPECT_EQ(count_malicious(peers), 0u);
}

TEST(MakePopulation, BadFractionThrows) {
  Rng rng(4);
  ThreatConfig cfg;
  cfg.malicious_fraction = 1.5;
  EXPECT_THROW(make_population(cfg, rng), std::invalid_argument);
  cfg.malicious_fraction = -0.1;
  EXPECT_THROW(make_population(cfg, rng), std::invalid_argument);
  cfg.malicious_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(make_population(cfg, rng), std::invalid_argument);
}

TEST(MakePopulation, GammaBoundariesAreWellDefined) {
  Rng rng(41);
  ThreatConfig cfg;
  cfg.n = 64;

  // gamma = 1: every peer is malicious, none honest.
  cfg.malicious_fraction = 1.0;
  const auto all_bad = make_population(cfg, rng);
  EXPECT_EQ(count_malicious(all_bad), 64u);

  // A tiny gamma whose rounded count is 0 behaves exactly like gamma = 0.
  cfg.malicious_fraction = 1e-9;
  const auto none_bad = make_population(cfg, rng);
  EXPECT_EQ(count_malicious(none_bad), 0u);

  // A gamma just under 1 whose rounded count is n behaves like gamma = 1,
  // in the collusive setting too (groups still partition cleanly).
  cfg.malicious_fraction = 1.0 - 1e-9;
  cfg.collusive = true;
  cfg.collusion_group_size = 8;
  const auto rounded_up = make_population(cfg, rng);
  EXPECT_EQ(count_malicious(rounded_up), 64u);
  for (const auto& p : rounded_up) EXPECT_GE(p.collusion_group, 0);
}

TEST(ThreatMetrics, GainEdgeCasesAreLoudOrWellDefined) {
  // No malicious peers: the attack gained nothing, by definition.
  std::vector<PeerProfile> honest_only(4);
  const std::vector<double> ref{0.25, 0.25, 0.25, 0.25};
  const std::vector<double> est{0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(malicious_reputation_gain(honest_only, ref, est), 1.0);

  // Zero reference mass but a positive attacked estimate: the attackers
  // manufactured reputation from nothing — report +inf, not a quiet 0/0.
  std::vector<PeerProfile> peers(4);
  peers[3].type = PeerType::kIndependentMalicious;
  const std::vector<double> zero_ref{0.4, 0.3, 0.3, 0.0};
  const std::vector<double> inflated{0.3, 0.3, 0.3, 0.1};
  EXPECT_TRUE(std::isinf(malicious_reputation_gain(peers, zero_ref, inflated)));

  // Both masses zero: nothing to gain, nothing gained.
  const std::vector<double> zero_est{0.5, 0.3, 0.2, 0.0};
  EXPECT_DOUBLE_EQ(malicious_reputation_gain(peers, zero_ref, zero_est), 1.0);
}

TEST(ThreatMetrics, HonestRmsErrorDegenerateInputs) {
  // An all-malicious population leaves no honest components: error 0, not
  // a 0/0 NaN.
  std::vector<PeerProfile> all_bad(3);
  for (auto& p : all_bad) p.type = PeerType::kIndependentMalicious;
  const std::vector<double> ref{0.5, 0.3, 0.2};
  const std::vector<double> est{0.2, 0.3, 0.5};
  EXPECT_DOUBLE_EQ(honest_rms_error(all_bad, ref, est), 0.0);

  // A perfect estimate reports exactly zero error.
  std::vector<PeerProfile> peers(3);
  EXPECT_DOUBLE_EQ(honest_rms_error(peers, ref, ref), 0.0);
}

TEST(ThreatRating, HonestReportsTruth) {
  std::vector<PeerProfile> peers(2);
  const auto rate = threat_rating(peers);
  EXPECT_DOUBLE_EQ(rate(0, 1, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(rate(0, 1, 0.0), 0.0);
}

TEST(ThreatRating, IndependentMaliciousInverts) {
  std::vector<PeerProfile> peers(2);
  peers[0].type = PeerType::kIndependentMalicious;
  const auto rate = threat_rating(peers);
  EXPECT_DOUBLE_EQ(rate(0, 1, 1.0), 0.0);  // good service rated very low
  EXPECT_DOUBLE_EQ(rate(0, 1, 0.0), 1.0);  // bad service rated very high
}

TEST(ThreatRating, CollusiveBoostsInGroupSlandersOutGroup) {
  std::vector<PeerProfile> peers(4);
  peers[0].type = PeerType::kCollusive;
  peers[0].collusion_group = 0;
  peers[1].type = PeerType::kCollusive;
  peers[1].collusion_group = 0;
  peers[2].type = PeerType::kCollusive;
  peers[2].collusion_group = 1;  // different gang
  const auto rate = threat_rating(peers);
  EXPECT_DOUBLE_EQ(rate(0, 1, 0.0), 1.0);  // in-group boosted despite bad service
  EXPECT_DOUBLE_EQ(rate(0, 2, 1.0), 0.0);  // rival gang slandered
  EXPECT_DOUBLE_EQ(rate(0, 3, 1.0), 0.0);  // honest outsider slandered
}

TEST(ThreatPartnerSelector, CollusionBiasDirectsInGroup) {
  ThreatConfig cfg;
  cfg.n = 100;
  cfg.collusive = true;
  cfg.collusion_partner_bias = 1.0;  // always pick in-group when possible
  std::vector<PeerProfile> peers(100);
  for (std::size_t i = 0; i < 10; ++i) {
    peers[i].type = PeerType::kCollusive;
    peers[i].collusion_group = static_cast<int>(i / 5);
  }
  const auto sel = threat_partner_selector(peers, cfg);
  Rng rng(6);
  for (int k = 0; k < 200; ++k) {
    const auto p = sel(0, rng);
    EXPECT_LT(p, 5u);  // group 0 = peers 0..4
    EXPECT_NE(p, 0u);
  }
}

TEST(ThreatPartnerSelector, HonestStaysUniform) {
  ThreatConfig cfg;
  cfg.n = 20;
  std::vector<PeerProfile> peers(20);
  const auto sel = threat_partner_selector(peers, cfg);
  Rng rng(7);
  std::set<trust::NodeId> seen;
  for (int k = 0; k < 600; ++k) seen.insert(sel(3, rng));
  EXPECT_GE(seen.size(), 18u);
  EXPECT_EQ(seen.count(3), 0u);
}

TEST(GenerateThreatFeedback, MaliciousSlanderGoodPeers) {
  Rng rng(8);
  ThreatConfig cfg;
  cfg.n = 150;
  cfg.malicious_fraction = 0.2;
  const auto peers = make_population(cfg, rng);
  trust::FeedbackGenConfig gen;
  gen.n = 150;
  gen.d_max = 50;
  gen.d_avg = 15.0;
  trust::FeedbackLedger ledger(150);
  generate_threat_feedback(ledger, peers, cfg, gen, Rng(99));

  // Malicious raters give honest (good) providers much lower ratings than
  // honest raters do.
  double bad_rater_mass = 0.0, honest_rater_mass = 0.0;
  std::size_t bad_raters = 0, honest_raters = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    double mass = 0.0;
    for (std::size_t j = 0; j < 150; ++j) {
      if (peers[j].type == PeerType::kHonest) mass += ledger.raw_score(i, j);
    }
    if (peers[i].type == PeerType::kHonest) {
      honest_rater_mass += mass;
      ++honest_raters;
    } else {
      bad_rater_mass += mass;
      ++bad_raters;
    }
  }
  ASSERT_GT(bad_raters, 0u);
  EXPECT_LT(bad_rater_mass / static_cast<double>(bad_raters),
            honest_rater_mass / static_cast<double>(honest_raters) * 0.5);
}

TEST(HonestCounterfactual, SameTransactionsDifferentRatings) {
  Rng rng(9);
  ThreatConfig cfg;
  cfg.n = 100;
  cfg.malicious_fraction = 0.3;
  const auto peers = make_population(cfg, rng);
  trust::FeedbackGenConfig gen;
  gen.n = 100;
  gen.d_max = 40;
  gen.d_avg = 10.0;

  trust::FeedbackLedger attacked(100), honest(100);
  generate_threat_feedback(attacked, peers, cfg, gen, Rng(1234));
  generate_honest_counterfactual(honest, peers, cfg, gen, Rng(1234));

  // Identical transaction streams: same rated pairs...
  EXPECT_EQ(attacked.num_feedbacks(), honest.num_feedbacks());
  // ...but honest raters' rows agree while malicious raters' rows differ.
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    for (std::size_t j = 0; j < 100; ++j) {
      const double a = attacked.raw_score(i, j);
      const double h = honest.raw_score(i, j);
      if (peers[i].type == PeerType::kHonest) {
        EXPECT_DOUBLE_EQ(a, h);
      } else if (a != h) {
        any_diff = true;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace gt::threat
