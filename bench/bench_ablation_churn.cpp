// ABL-CHURN — robustness to peer dynamics and link failures (the paper's
// "adaptive to peer dynamics" and "tolerates link failures" claims,
// section 3 design goals and section 7 conclusions).
//
// Sweeps (a) churn rate per aggregation cycle and (b) gossip message-loss
// probability, running neighbors-only gossip over a live overlay, and
// reports convergence and ranking fidelity vs the exact computation.
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "graph/topology.hpp"
#include "overlay/overlay.hpp"

using namespace gt;

namespace {

struct ChurnOutcome {
  double converged_cycles = 0.0;
  double tau_alive = 0.0;
  double steps = 0.0;
};

ChurnOutcome run_with_dynamics(std::size_t n, double churn, double loss,
                               std::uint64_t seed) {
  Rng rng(seed);
  const auto w = bench::ThreatWorkload::make(n, 0.1, false, 5, seed);
  overlay::OverlayManager om(graph::make_gnutella_like(n, rng));
  const auto exact = baseline::power_iteration(w.attacked, 0.15, 0.01).scores;

  core::GossipTrustConfig cfg;
  cfg.neighbors_only = true;
  cfg.loss_probability = loss;
  core::GossipTrustEngine engine(n, cfg);
  bench::attach_engine(engine);
  auto v = engine.initial_scores();
  std::vector<core::NodeId> power;
  Rng grng(seed ^ 0xc4u);

  ChurnOutcome out;
  const int cycles = 8;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::vector<std::uint8_t> alive(n, 0);
    for (const auto a : om.alive_nodes()) alive[a] = 1;
    const auto stats =
        engine.run_cycle(w.attacked, v, power, grng, &om.topology(), &alive);
    out.converged_cycles += stats.gossip_converged ? 1.0 : 0.0;
    out.steps += static_cast<double>(stats.gossip_steps);
    om.churn_step(churn, 0.5, 3, grng);
  }
  out.converged_cycles /= cycles;
  out.steps /= cycles;

  // Ranking fidelity over currently-alive peers only (departed ids hold 0).
  std::vector<double> ref, est;
  for (const auto a : om.alive_nodes()) {
    ref.push_back(exact[a]);
    est.push_back(v[a]);
  }
  out.tau_alive = kendall_tau(ref, est);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("ablation_churn", argc, argv);
  bench::print_preamble("ABL-CHURN peer dynamics and link failures",
                        "design goals (section 3) / conclusions (section 7)");
  const std::size_t n = bench::quick_mode() ? 200 : 500;

  Table table("Neighbors-only gossip over a live overlay, n = " +
              std::to_string(n) + ", 10% independent malicious, 8 cycles");
  table.set_header({"churn/cycle", "msg loss", "cycles converged",
                    "steps/cycle", "alive-peer tau"});

  struct Point {
    double churn, loss;
  };
  const std::vector<Point> points =
      bench::quick_mode() ? std::vector<Point>{{0.0, 0.0}, {0.05, 0.1}}
                   : std::vector<Point>{{0.0, 0.0},  {0.02, 0.0}, {0.05, 0.0},
                                        {0.10, 0.0}, {0.0, 0.05}, {0.0, 0.10},
                                        {0.0, 0.20}, {0.05, 0.10}};

  for (const auto& p : points) {
    RunningStats conv, steps, tau;
    for (const auto seed : bench::point_seeds()) {
      const auto out = run_with_dynamics(n, p.churn, p.loss, seed);
      conv.add(out.converged_cycles);
      steps.add(out.steps);
      tau.add(out.tau_alive);
    }
    table.add_row({cell(p.churn * 100, 0) + "%", cell(p.loss * 100, 0) + "%",
                   cell(conv.mean(), 2), cell(steps.mean(), 1),
                   cell(tau.mean(), 3)});
  }
  bench::emit(table, "abl_churn");
  std::printf("\nshape check: gossip converges through moderate churn and "
              "message loss with only extra steps (push-sum loses x and w "
              "mass together, so ratios stay calibrated — the 'no error "
              "recovery needed' property); ranking fidelity over live peers "
              "degrades gracefully.\n");
  return 0;
}
