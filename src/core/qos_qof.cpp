#include "core/qos_qof.hpp"

#include <stdexcept>

#include "common/stats.hpp"

namespace gt::core {

std::vector<double> compute_qof(const trust::FeedbackLedger& ledger,
                                std::span<const double> global_scores,
                                std::size_t max_rated) {
  const std::size_t n = ledger.num_peers();
  if (global_scores.size() != n)
    throw std::invalid_argument("compute_qof: size mismatch");
  if (max_rated < 2) throw std::invalid_argument("compute_qof: max_rated < 2");

  std::vector<double> qof(n, 0.5);
  for (trust::NodeId i = 0; i < n; ++i) {
    auto ratings = ledger.ratings_of(i);
    if (ratings.size() > max_rated) ratings.resize(max_rated);  // sorted by ratee
    std::size_t concordant2 = 0;  // counted in halves so consensus ties = 1
    std::size_t comparable = 0;
    for (std::size_t a = 0; a < ratings.size(); ++a) {
      for (std::size_t b = a + 1; b < ratings.size(); ++b) {
        const double dr = ratings[a].value - ratings[b].value;
        if (dr == 0.0) continue;  // the rater expressed no preference
        ++comparable;
        const double dv =
            global_scores[ratings[a].ratee] - global_scores[ratings[b].ratee];
        if (dv == 0.0) {
          concordant2 += 1;  // consensus indifferent: half credit
        } else if ((dr > 0.0) == (dv > 0.0)) {
          concordant2 += 2;
        }
      }
    }
    if (comparable > 0)
      qof[i] = static_cast<double>(concordant2) /
               (2.0 * static_cast<double>(comparable));
  }
  return qof;
}

QofAggregationResult qof_weighted_aggregation(const trust::FeedbackLedger& ledger,
                                              double alpha, double power_fraction,
                                              double delta,
                                              std::size_t max_iterations,
                                              std::size_t qof_refresh_every) {
  const std::size_t n = ledger.num_peers();
  if (n == 0) throw std::invalid_argument("qof_weighted_aggregation: empty ledger");
  if (qof_refresh_every == 0)
    throw std::invalid_argument("qof_weighted_aggregation: refresh period must be > 0");
  const trust::SparseMatrix s = ledger.normalized_matrix();

  QofAggregationResult result;
  result.qos.assign(n, 1.0 / static_cast<double>(n));
  result.qof.assign(n, 1.0);  // start trusting every rater fully
  std::vector<NodeId> power;

  std::vector<double> damped(n);
  for (std::size_t it = 0; it < max_iterations; ++it) {
    // Damp each rater's voting weight by its feedback quality, then take
    // one exact transpose-product step.
    for (std::size_t i = 0; i < n; ++i) damped[i] = result.qos[i] * result.qof[i];
    std::vector<double> next = s.transpose_multiply(damped);
    normalize_l1(next);
    apply_power_node_mix(next, power, alpha);
    power = select_power_nodes(next, power_fraction);

    const double change = mean_relative_error(next, result.qos);
    result.qos = std::move(next);
    ++result.iterations;

    if ((it + 1) % qof_refresh_every == 0) {
      result.qof = compute_qof(ledger, result.qos);
      continue;  // QoF changed the operator: do not test convergence yet
    }
    if (change < delta) {
      result.converged = true;
      break;
    }
  }
  result.qof = compute_qof(ledger, result.qos);
  return result;
}

}  // namespace gt::core
