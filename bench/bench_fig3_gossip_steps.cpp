// FIG3 — paper Figure 3: "Gossip step counts of three P2P network
// configurations under various gossip error thresholds".
//
// For network sizes n in {500, 1000, 2000} and gossip error thresholds
// eps in {1e-1 .. 1e-6}, measures the number of gossip steps one
// aggregation cycle needs until every node's full reputation vector is
// eps-stable (Algorithm 1 line 14). Expected shape (paper section 6.2):
// steps grow as eps shrinks; for small eps (<= 1e-4) the threshold
// dominates and the three size curves nearly coincide; for large eps
// (>= 1e-2) the network size dominates.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "gossip/vector_gossip.hpp"

using namespace gt;

int main(int argc, char** argv) {
  auto* telemetry = bench::init("fig3_gossip_steps", argc, argv);
  bench::print_preamble("FIG3 gossip step counts",
                        "Figure 3 (section 6.2, convergence overhead)");

  const std::vector<std::size_t> sizes =
      bench::quick_mode() ? std::vector<std::size_t>{250, 500}
                   : std::vector<std::size_t>{500, 1000, 2000};
  const std::vector<double> thresholds =
      bench::quick_mode() ? std::vector<double>{1e-1, 1e-3, 1e-5}
                   : std::vector<double>{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6};

  Table table("Gossip steps per aggregation cycle");
  std::vector<std::string> header{"epsilon"};
  for (const auto n : sizes) header.push_back("n=" + std::to_string(n));
  table.set_header(header);

  for (const double eps : thresholds) {
    std::vector<std::string> row{format_exp(eps)};
    for (const auto n : sizes) {
      RunningStats steps;
      for (const auto seed : bench::point_seeds()) {
        const auto workload = bench::ThreatWorkload::make_clean(n, seed);
        gossip::PushSumConfig cfg;
        cfg.epsilon = eps;
        cfg.stable_rounds = 2;
        cfg.num_threads = bench::knobs().threads;
        gossip::VectorGossip vg(n, cfg);
        if (telemetry != nullptr) vg.set_event_log(telemetry, 16);
        if (auto* sink = bench::trace_sink()) vg.set_trace(sink);
        const std::vector<double> v(n, 1.0 / static_cast<double>(n));
        vg.initialize(workload.honest, v);
        Rng rng(seed ^ 0xf16f3);
        const auto res = vg.run(rng);
        steps.add(static_cast<double>(res.steps));
        if (telemetry != nullptr) {
          // One aggregation cycle's worth of gossip = one cycle record;
          // scripts/report.py groups these by (n, epsilon) to reproduce
          // the table below from the log alone.
          telemetry->record("cycle")
              .field("n", n)
              .field("epsilon", eps)
              .field("run_seed", seed)
              .field("gossip_steps", res.steps)
              .field("gossip_converged", res.converged)
              .field("messages_sent", res.messages_sent)
              .field("messages_dropped", res.messages_lost)
              .field("triplets_sent", res.triplets_sent)
              .field("active_triplets", res.active_triplets)
              .field("zero_components_skipped", res.zero_components_skipped)
              .field("send_phase_seconds", res.send_phase_seconds)
              .field("bookkeeping_phase_seconds", res.bookkeeping_phase_seconds);
        }
      }
      row.push_back(format_sci(steps.mean(), 1));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, "fig3");
  std::printf("\nshape check: steps rise as epsilon tightens; size curves "
              "converge for epsilon <= 1e-4 (threshold-dominated regime) and "
              "separate for epsilon >= 1e-2 (size-dominated regime).\n");
  return 0;
}
