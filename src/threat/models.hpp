// Threat models (paper sections 6.1 and 6.3).
//
// Two malicious settings are studied:
//   * independent: malicious peers cheat in transactions AND lie in
//     feedback — "they rate the peers who provide good service very low
//     and rate those who provide bad service very high";
//   * collusive: groups of malicious peers "rate the peers in their
//     collusion group very high and rate outsiders very low", boosting
//     their own global scores (the classic eigenvector spider trap).
//
// A population assigns each peer a type, a service quality (malicious
// peers also provide corrupted service) and, in the collusive setting, a
// collusion group. The rating/partner functions plug into
// trust::generate_feedback, and an honest-counterfactual generator
// produces the ground-truth ledger used as the reference in Eq. (8).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "trust/generator.hpp"

namespace gt::threat {

enum class PeerType { kHonest, kIndependentMalicious, kCollusive };

struct PeerProfile {
  PeerType type = PeerType::kHonest;
  int collusion_group = -1;      ///< group id, -1 for non-colluders
  double service_quality = 1.0;  ///< probability of serving authentically
};

struct ThreatConfig {
  std::size_t n = 1000;
  double malicious_fraction = 0.0;       ///< gamma, in [0, 1]
  bool collusive = false;                ///< independent vs collusive setting
  std::size_t collusion_group_size = 5;  ///< peers per collusion group
  double collusion_partner_bias = 0.5;   ///< prob. a colluder transacts in-group
};

/// Builds the population: malicious peers are a random subset of size
/// round(gamma * n); honest service quality ~ U[0.8, 1.0], malicious
/// ~ U[0.0, 0.2]; colluders are partitioned into consecutive groups of the
/// configured size.
std::vector<PeerProfile> make_population(const ThreatConfig& cfg, Rng& rng);

/// Per-peer service-quality vector.
std::vector<double> service_qualities(const std::vector<PeerProfile>& peers);

/// Rating behaviour for the population: honest peers report the outcome;
/// independent malicious invert it; colluders rate in-group 1 and
/// out-group 0 regardless of outcome.
trust::RatingFunction threat_rating(const std::vector<PeerProfile>& peers);

/// Partner selection: colluders pick an in-group partner with probability
/// `collusion_partner_bias`, otherwise (and for everyone else) uniform.
trust::PartnerSelector threat_partner_selector(const std::vector<PeerProfile>& peers,
                                               const ThreatConfig& cfg);

/// Fills `ledger` with the attacked feedback workload (power-law counts,
/// threat partner selection, threat ratings).
void generate_threat_feedback(trust::FeedbackLedger& ledger,
                              const std::vector<PeerProfile>& peers,
                              const ThreatConfig& cfg,
                              const trust::FeedbackGenConfig& gen, Rng rng);

/// The honest counterfactual: the SAME transaction stream (same rng state,
/// same partner logic, same outcomes) but every peer rates truthfully.
/// Aggregating this ledger yields the "calculated" reference scores v_i of
/// Eq. (8).
void generate_honest_counterfactual(trust::FeedbackLedger& ledger,
                                    const std::vector<PeerProfile>& peers,
                                    const ThreatConfig& cfg,
                                    const trust::FeedbackGenConfig& gen, Rng rng);

/// Eq. (8) RMS relative error restricted to honest peers' components.
/// Malicious peers' own reference scores are near zero, so including them
/// turns the metric into a ratio of two noise terms; the honest-restricted
/// RMS is the stable "aggregation error" the Fig. 4 benches report.
double honest_rms_error(const std::vector<PeerProfile>& peers,
                        std::span<const double> reference,
                        std::span<const double> estimate);

/// Attack-success metric reported alongside: total attacked reputation of
/// malicious peers divided by their total reference reputation (1 = the
/// attack gained nothing; >> 1 = reputations successfully inflated).
double malicious_reputation_gain(const std::vector<PeerProfile>& peers,
                                 std::span<const double> reference,
                                 std::span<const double> estimate);

}  // namespace gt::threat
