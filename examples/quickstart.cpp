// Quickstart: build a small P2P trust workload, aggregate global
// reputation scores with GossipTrust, and compare against the exact
// eigenvector computation.
//
//   $ ./quickstart [n]
//
// Walks through the full public API surface a downstream user touches:
// FeedbackLedger -> SparseMatrix -> GossipTrustEngine -> scores.
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "common/knob.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

int main(int argc, char** argv) {
  std::size_t n = 200;
  gt::knob::Cli("quickstart", {{"N", "", gt::knob::into(n, 10)}})
      .parse_or_exit(argc, argv);
  const std::size_t n_malicious = n / 10;
  gt::Rng rng(42);

  // 1. Simulate a feedback history: every peer rates its transaction
  //    partners; feedback counts follow the paper's power law
  //    (d_max = 200, d_avg = 20); 10% of peers provide corrupted service.
  gt::trust::FeedbackLedger ledger(n);
  gt::trust::FeedbackGenConfig workload;
  workload.n = n;
  workload.d_max = std::min<std::size_t>(200, n / 2);
  workload.d_avg = 20.0;
  const auto quality = gt::trust::draw_service_qualities(n, n_malicious, rng);
  gt::trust::generate_honest_feedback(ledger, quality, workload, rng);
  std::printf("ledger: %zu peers, %zu rated pairs\n", ledger.num_peers(),
              ledger.num_feedbacks());

  // 2. Normalize into the stochastic trust matrix S (Eq. 1 of the paper).
  const auto s = ledger.normalized_matrix();
  std::printf("trust matrix: %zu nonzeros, row-stochastic: %s\n", s.nonzeros(),
              s.is_row_stochastic() ? "yes" : "no");

  // 3. Run GossipTrust: every aggregation cycle computes S^T V by vector
  //    push-sum gossip; power nodes damp the iteration (alpha = 0.15).
  gt::core::GossipTrustConfig config;  // paper Table 2 defaults
  gt::core::GossipTrustEngine engine(n, config);
  gt::Rng gossip_rng(7);
  const auto result = engine.run(s, gossip_rng);
  std::printf("\nGossipTrust converged: %s after %zu cycles, %zu gossip steps, "
              "%llu messages\n",
              result.converged ? "yes" : "no", result.num_cycles(),
              result.total_gossip_steps(),
              static_cast<unsigned long long>(result.total_messages()));

  // 4. Verify against the exact centralized computation.
  const auto exact =
      gt::baseline::power_iteration(s, config.alpha, config.power_node_fraction);
  std::printf("RMS error vs exact eigenvector: %.3e\n",
              gt::rms_relative_error(exact.scores, result.scores));
  std::printf("ranking agreement (Kendall tau): %.4f\n",
              gt::kendall_tau(exact.scores, result.scores));

  // 5. Show the reputation ranking: malicious peers (ids < n/10) sink.
  gt::Table table("\nTop-5 and bottom-5 peers by global reputation");
  table.set_header({"rank", "peer", "score", "intrinsic quality"});
  const auto ranked = gt::top_k_indices(result.scores, n);
  for (std::size_t r = 0; r < 5; ++r) {
    const auto id = ranked[r];
    table.add_row({gt::cell(r + 1), gt::cell(id), gt::cell(result.scores[id], 5),
                   gt::cell(quality[id], 2)});
  }
  for (std::size_t r = n - 5; r < n; ++r) {
    const auto id = ranked[r];
    table.add_row({gt::cell(r + 1), gt::cell(id), gt::cell(result.scores[id], 5),
                   gt::cell(quality[id], 2)});
  }
  table.print(std::cout);

  double bad_mean = 0.0, good_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    (i < n_malicious ? bad_mean : good_mean) += result.scores[i];
  bad_mean /= static_cast<double>(n_malicious);
  good_mean /= static_cast<double>(n - n_malicious);
  std::printf("\nmean score: malicious peers %.5f vs honest peers %.5f (%.1fx)\n",
              bad_mean, good_mean, good_mean / bad_mean);
  return 0;
}
