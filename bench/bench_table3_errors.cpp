// TAB3 — paper Table 3: "Gossip and Aggregation Errors under Three
// Convergence Threshold Settings for a 1000-Node P2P Network".
//
// For (eps, delta) in {(1e-5, 1e-4), (1e-4, 1e-3), (1e-3, 1e-2)} the bench
// reports, per the paper's columns:
//   * aggregation cycles until |V(t) - V(t-1)| < delta,
//   * gossip steps (mean per cycle),
//   * gossip error: RMS relative error of the gossiped product vs the
//     exact S^T V product within a cycle (protocol error only),
//   * aggregation error: RMS relative distance of the final gossiped
//     reputation vector from the exact fixed point.
// Expected shape: tighter thresholds -> more cycles/steps, smaller errors
// (both falling by orders of magnitude across the three settings).
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "gossip/vector_gossip.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("table3_errors", argc, argv);
  bench::print_preamble("TAB3 gossip and aggregation errors",
                        "Table 3 (section 6.3, error analysis)");
  const std::size_t n = bench::quick_mode() ? 300 : 1000;

  struct Setting {
    double eps;
    double delta;
  };
  const std::vector<Setting> settings{{1e-5, 1e-4}, {1e-4, 1e-3}, {1e-3, 1e-2}};

  Table table("n = " + std::to_string(n) + " peers");
  table.set_header({"eps", "delta", "agg cycles", "gossip steps/cycle",
                    "gossip error", "aggregation error"});

  for (const auto& setting : settings) {
    RunningStats cycles, steps, gossip_err, agg_err;
    for (const auto seed : bench::point_seeds()) {
      const auto workload = bench::ThreatWorkload::make_clean(n, seed);

      // (a) Per-cycle gossip error: gossip one product and compare with
      // the exact product from the same input vector.
      {
        const std::vector<double> v(n, 1.0 / static_cast<double>(n));
        const auto exact = workload.honest.transpose_multiply(v);
        gossip::PushSumConfig gcfg;
        gcfg.epsilon = setting.eps;
        gossip::VectorGossip vg(n, gcfg);
        vg.initialize(workload.honest, v);
        Rng rng(seed ^ 0x7ab1e3);
        vg.run(rng);
        RunningStats node_err;
        for (std::size_t i = 0; i < n; i += std::max<std::size_t>(1, n / 16)) {
          const auto view = vg.node_view(i);
          node_err.add(rms_relative_error(exact, view));
        }
        gossip_err.add(node_err.mean());
      }

      // (b) Full aggregation: engine until delta-convergence, error vs the
      // exact fixed point under identical power-node anchoring.
      core::GossipTrustConfig cfg;
      cfg.epsilon = setting.eps;
      cfg.delta = setting.delta;
      core::GossipTrustEngine engine(n, cfg);
      bench::attach_engine(engine);
      Rng rng(seed ^ 0x7ab1e4);
      const auto run = engine.run(workload.honest, rng);
      const auto exact_fp = baseline::fixed_power_iteration(
          workload.honest, cfg.alpha, run.power_nodes, 1e-13);
      cycles.add(static_cast<double>(run.num_cycles()));
      steps.add(run.mean_gossip_steps_per_cycle());
      agg_err.add(rms_relative_error(exact_fp.scores, run.scores));
    }
    table.add_row({format_exp(setting.eps), format_exp(setting.delta),
                   cell(cycles.mean(), 1), cell(steps.mean(), 1),
                   format_exp(gossip_err.mean(), 2),
                   format_exp(agg_err.mean(), 2)});
  }
  bench::emit(table, "table3");
  std::printf("\npaper's rows for comparison (their testbed): "
              "(1e-5,1e-4): 19 cycles, 35 steps, 1e-6, 1.6e-4 | "
              "(1e-4,1e-3): 15, 28, 7e-6, 7.3e-4 | "
              "(1e-3,1e-2): 5, 22, 1.6e-4, 3.8e-3\n");
  return 0;
}
