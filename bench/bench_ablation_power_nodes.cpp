// ABL-PN — ablation on the power-node design (DESIGN.md): sweep the greedy
// factor alpha and the power-node fraction q under a fixed attack, using
// exact aggregation so the sweep isolates the mechanism from gossip noise.
//
// Questions answered: is alpha = 0.15 really the sweet spot the paper
// claims? does q = 1% suffice, and does a larger anchor set help?
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "bench_common.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("ablation_power_nodes", argc, argv);
  bench::print_preamble("ABL-PN greedy factor / power-node fraction sweep",
                        "design-choice ablation (paper sections 2, 6.3)");
  const std::size_t n = bench::quick_mode() ? 300 : 1000;
  const double gamma = 0.10;  // 10% collusive in gangs of 5: the hard case
  const std::vector<double> alphas =
      bench::quick_mode() ? std::vector<double>{0.0, 0.15, 0.3}
                   : std::vector<double>{0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5};
  const std::vector<double> q_fracs =
      bench::quick_mode() ? std::vector<double>{0.01}
                   : std::vector<double>{0.005, 0.01, 0.02};

  Table table("Honest-peer RMS error, 10% collusive (groups of 5), n = " +
              std::to_string(n) + ", exact aggregation");
  std::vector<std::string> header{"alpha"};
  for (const auto q : q_fracs) header.push_back("q=" + format_sci(q * 100, 1) + "%");
  table.set_header(header);

  for (const double alpha : alphas) {
    std::vector<std::string> row{cell(alpha, 2)};
    for (const double q : q_fracs) {
      RunningStats rms;
      for (const auto seed : bench::point_seeds()) {
        const auto w = bench::ThreatWorkload::make(n, gamma, true, 5, seed);
        const auto attacked =
            baseline::power_iteration(w.attacked, alpha, q, 1e-10, 300);
        const auto ref = baseline::fixed_power_iteration(w.honest, alpha,
                                                         attacked.power_nodes,
                                                         1e-12);
        rms.add(threat::honest_rms_error(w.peers, ref.scores, attacked.scores));
      }
      row.push_back(cell(rms.mean(), 4));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, "abl_power_nodes");
  std::printf("\nshape check: error falls steeply from alpha=0, bottoms out "
              "around alpha ~ 0.1-0.2, and stops improving (or worsens) "
              "beyond — the paper's alpha = 0.15 default sits in the basin; "
              "q in [0.5%%, 2%%] barely moves the result.\n");
  return 0;
}
