#include "threat/models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/powerlaw.hpp"

namespace gt::threat {

std::vector<PeerProfile> make_population(const ThreatConfig& cfg, Rng& rng) {
  // Negated-range form so NaN (which compares false both ways) is rejected
  // instead of silently rounding to zero malicious peers.
  if (!(cfg.malicious_fraction >= 0.0 && cfg.malicious_fraction <= 1.0))
    throw std::invalid_argument("make_population: malicious_fraction out of range");
  std::vector<PeerProfile> peers(cfg.n);
  for (auto& p : peers) p.service_quality = rng.next_double(0.8, 1.0);

  const auto n_bad = static_cast<std::size_t>(
      std::llround(cfg.malicious_fraction * static_cast<double>(cfg.n)));
  const auto bad = rng.sample_without_replacement(cfg.n, n_bad);

  if (cfg.collusive) {
    const std::size_t group_size = std::max<std::size_t>(1, cfg.collusion_group_size);
    for (std::size_t k = 0; k < bad.size(); ++k) {
      PeerProfile& p = peers[bad[k]];
      p.type = PeerType::kCollusive;
      p.collusion_group = static_cast<int>(k / group_size);
      p.service_quality = rng.next_double(0.0, 0.2);
    }
  } else {
    for (const auto idx : bad) {
      PeerProfile& p = peers[idx];
      p.type = PeerType::kIndependentMalicious;
      p.service_quality = rng.next_double(0.0, 0.2);
    }
  }
  return peers;
}

std::vector<double> service_qualities(const std::vector<PeerProfile>& peers) {
  std::vector<double> q(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) q[i] = peers[i].service_quality;
  return q;
}

trust::RatingFunction threat_rating(const std::vector<PeerProfile>& peers) {
  return [&peers](trust::NodeId rater, trust::NodeId ratee, double outcome) {
    const PeerProfile& r = peers[rater];
    switch (r.type) {
      case PeerType::kHonest:
        return outcome;
      case PeerType::kIndependentMalicious:
        // Dishonest inversion: good service rated very low, bad very high.
        return 1.0 - outcome;
      case PeerType::kCollusive: {
        const PeerProfile& e = peers[ratee];
        const bool in_group = e.type == PeerType::kCollusive &&
                              e.collusion_group == r.collusion_group;
        return in_group ? 1.0 : 0.0;
      }
    }
    return outcome;
  };
}

trust::PartnerSelector threat_partner_selector(const std::vector<PeerProfile>& peers,
                                               const ThreatConfig& cfg) {
  // Precompute group membership lists so in-group sampling is O(1).
  auto groups = std::make_shared<std::unordered_map<int, std::vector<trust::NodeId>>>();
  for (std::size_t i = 0; i < peers.size(); ++i)
    if (peers[i].type == PeerType::kCollusive)
      (*groups)[peers[i].collusion_group].push_back(i);

  const auto n = peers.size();
  const double bias = cfg.collusion_partner_bias;
  auto uniform = trust::uniform_partner_selector(n);
  return [&peers, groups, bias, uniform](trust::NodeId rater, Rng& rng) {
    const PeerProfile& r = peers[rater];
    if (r.type == PeerType::kCollusive && rng.next_bool(bias)) {
      const auto& mates = groups->at(r.collusion_group);
      if (mates.size() > 1) {
        trust::NodeId pick;
        do {
          pick = mates[rng.next_below(mates.size())];
        } while (pick == rater);
        return pick;
      }
    }
    return uniform(rater, rng);
  };
}

namespace {

void generate_common(trust::FeedbackLedger& ledger,
                     const std::vector<PeerProfile>& peers, const ThreatConfig& cfg,
                     const trust::FeedbackGenConfig& gen, Rng rng,
                     const trust::RatingFunction& rating) {
  if (peers.size() != gen.n || ledger.num_peers() != gen.n)
    throw std::invalid_argument("threat feedback: population/ledger size mismatch");
  const auto counts = power_law_feedback_counts(gen.n, gen.d_max, gen.d_avg, rng);
  const auto quality = service_qualities(peers);
  trust::generate_feedback(ledger, counts, quality,
                           threat_partner_selector(peers, cfg), rating, rng);
}

}  // namespace

void generate_threat_feedback(trust::FeedbackLedger& ledger,
                              const std::vector<PeerProfile>& peers,
                              const ThreatConfig& cfg,
                              const trust::FeedbackGenConfig& gen, Rng rng) {
  generate_common(ledger, peers, cfg, gen, rng, threat_rating(peers));
}

double honest_rms_error(const std::vector<PeerProfile>& peers,
                        std::span<const double> reference,
                        std::span<const double> estimate) {
  if (peers.size() != reference.size() || peers.size() != estimate.size())
    throw std::invalid_argument("honest_rms_error: size mismatch");
  std::vector<double> ref_h, est_h;
  ref_h.reserve(peers.size());
  est_h.reserve(peers.size());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].type == PeerType::kHonest) {
      ref_h.push_back(reference[i]);
      est_h.push_back(estimate[i]);
    }
  }
  // gamma = 1 leaves nobody whose reputation the metric is defined over;
  // "no honest peers were wronged" is the only defensible answer.
  if (ref_h.empty()) return 0.0;
  // Skip honest peers whose reference reputation is negligible (< 1% of
  // the uniform share): they have essentially no reputation to protect,
  // and dividing by their near-zero reference turns Eq. (8) into a ratio
  // of noise terms that can dominate the whole metric.
  const double floor = 0.01 / static_cast<double>(peers.size());
  return rms_relative_error(ref_h, est_h, floor);
}

double malicious_reputation_gain(const std::vector<PeerProfile>& peers,
                                 std::span<const double> reference,
                                 std::span<const double> estimate) {
  if (peers.size() != reference.size() || peers.size() != estimate.size())
    throw std::invalid_argument("malicious_reputation_gain: size mismatch");
  double ref_mass = 0.0, est_mass = 0.0;
  std::size_t n_bad = 0;
  for (std::size_t i = 0; i < peers.size(); ++i) {
    if (peers[i].type != PeerType::kHonest) {
      ++n_bad;
      ref_mass += reference[i];
      est_mass += estimate[i];
    }
  }
  // Edge cases get well-defined answers instead of a silent 0.0 that reads
  // as "attack fully suppressed": an all-honest population gained nothing
  // (1.0), and mass conjured against a zero reference is an unbounded gain
  // (+inf) — the caller should treat that as "whitewash defeated the
  // reference", not divide-by-zero garbage.
  if (n_bad == 0) return 1.0;
  if (ref_mass <= 0.0)
    return est_mass > 0.0 ? std::numeric_limits<double>::infinity() : 1.0;
  return est_mass / ref_mass;
}

void generate_honest_counterfactual(trust::FeedbackLedger& ledger,
                                    const std::vector<PeerProfile>& peers,
                                    const ThreatConfig& cfg,
                                    const trust::FeedbackGenConfig& gen, Rng rng) {
  // Same rng value => identical partner and outcome streams; only the
  // rating rule differs, so the pair of ledgers isolates dishonest-feedback
  // effects exactly.
  generate_common(ledger, peers, cfg, gen, rng, trust::honest_rating());
}

}  // namespace gt::threat
