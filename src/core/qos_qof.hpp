// QoS/QoF dual-score extension (paper section 7, "further research").
//
// The paper suggests keeping two reputation scores per peer: one for
// quality-of-service (the standard global reputation V) and one for
// quality-of-feedback (how truthful the peer's *ratings* are), and
// integrating them. We implement the suggestion:
//
//   * QoF_i: rank concordance between the raw ratings peer i issued and
//     the network consensus. For every pair of peers (a, b) that i rated
//     differently, the pair is concordant when sign(r_ia - r_ib) matches
//     sign(v_a - v_b); QoF_i is the concordant fraction in [0, 1].
//     Zero-valued ratings count ("rated bad" != "never met"), so a
//     colluder who rates its gang 1 and everyone else 0 claims
//     gang > honest on every cross pair — exactly the pairs the consensus
//     refutes — and scores near 0, while honest raters score near 1.
//   * qof_weighted_aggregation: robust re-aggregation where each rater's
//     voting weight is damped by its QoF, alternated with QoF refreshes —
//     dishonest raters progressively lose influence.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/power_nodes.hpp"
#include "trust/feedback.hpp"
#include "trust/matrix.hpp"

namespace gt::core {

/// Per-rater feedback quality in [0, 1]; peers whose ratings contain no
/// comparable pair (fewer than two distinctly-valued ratings) get the
/// neutral value 0.5. Raters with more than `max_rated` ratings are
/// evaluated on their `max_rated` lowest-id ratees (deterministic cap that
/// bounds the O(m^2) pair scan).
std::vector<double> compute_qof(const trust::FeedbackLedger& ledger,
                                std::span<const double> global_scores,
                                std::size_t max_rated = 128);

/// Outcome of the robust dual-score aggregation.
struct QofAggregationResult {
  std::vector<double> qos;  ///< robust global reputation (QoF-damped)
  std::vector<double> qof;  ///< final feedback-quality scores
  std::size_t iterations = 0;
  bool converged = false;
};

/// Exact (non-gossip) robust aggregation:
///   V(t+1) proportional-to S^T (V(t) * QoF) with the alpha/power-node mix,
/// refreshing QoF from the current V every `qof_refresh_every` iterations.
/// This realizes the paper's proposed QoS/QoF integration; the gossip
/// engine can consume the resulting QoF as row damping unchanged.
QofAggregationResult qof_weighted_aggregation(const trust::FeedbackLedger& ledger,
                                              double alpha, double power_fraction,
                                              double delta = 1e-6,
                                              std::size_t max_iterations = 500,
                                              std::size_t qof_refresh_every = 5);

}  // namespace gt::core
