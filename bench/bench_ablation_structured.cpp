// ABL-DHT — the paper's section-7 remark: "with minor modifications, the
// system can perform even better in a structured P2P system" (DHT routing
// replaces random gossip).
//
// Compares, for the same trust workload:
//   * per-cycle cost of one S^T V evaluation: gossip steps x n messages
//     (each carrying O(n) triplets) versus one DHT lookup per nonzero
//     trust entry (O(log n) hops each);
//   * end-to-end damped aggregation (alpha = 0.15 on both sides — the
//     undamped iteration has no spectral-gap guarantee, which is the whole
//     point of the teleport): GossipTrust cycles vs EigenTrust rounds;
//   * ranking agreement between the two systems' outputs.
#include <cstdio>
#include <iostream>

#include "baseline/eigentrust.hpp"
#include "baseline/power_iteration.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "dht/chord.hpp"
#include "gossip/vector_gossip.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("ablation_structured", argc, argv);
  bench::print_preamble("ABL-DHT structured variant comparison",
                        "section 7: GossipTrust over a DHT substrate");
  const std::vector<std::size_t> sizes = bench::quick_mode()
                                             ? std::vector<std::size_t>{256}
                                             : std::vector<std::size_t>{512, 1024};

  Table table("Cost of aggregation: flat gossip vs DHT-routed (alpha = 0.15)");
  table.set_header({"n", "gossip steps/cycle", "gossip triplets/cycle",
                    "DHT msgs/cycle", "lookup hops", "gossip cycles",
                    "ET rounds", "ranking tau"});

  for (const auto n : sizes) {
    RunningStats steps_per_cycle, triplets_per_cycle, dht_per_cycle, hops;
    RunningStats gossip_cycles, et_rounds, tau;
    for (const auto seed : bench::point_seeds()) {
      const auto w = bench::ThreatWorkload::make_clean(n, seed);

      // (a) One gossip evaluation of S^T V.
      {
        gossip::PushSumConfig gcfg;
        gcfg.epsilon = 1e-4;
        gossip::VectorGossip vg(n, gcfg);
        const std::vector<double> v(n, 1.0 / static_cast<double>(n));
        vg.initialize(w.honest, v);
        Rng rng(seed ^ 0xd471);
        const auto res = vg.run(rng);
        steps_per_cycle.add(static_cast<double>(res.steps));
        triplets_per_cycle.add(static_cast<double>(res.triplets_sent));
      }

      // (b) One DHT evaluation: one lookup per nonzero entry.
      const dht::ChordRing ring(n, seed ^ 0xc0d);
      const auto dht_msgs = baseline::eigentrust_dht_messages(w.honest, ring, 1);
      dht_per_cycle.add(static_cast<double>(dht_msgs));
      hops.add(static_cast<double>(dht_msgs) /
               static_cast<double>(w.honest.nonzeros()));

      // (c) End-to-end damped aggregation, both sides.
      core::GossipTrustConfig cfg;  // alpha = 0.15, q = 1% defaults
      core::GossipTrustEngine engine(n, cfg);
      bench::attach_engine(engine);
      Rng rng(seed ^ 0xd472);
      const auto run = engine.run(w.honest, rng);
      gossip_cycles.add(static_cast<double>(run.num_cycles()));

      const auto et = baseline::eigentrust(w.honest, run.power_nodes, 0.15, 1e-3);
      et_rounds.add(static_cast<double>(et.iterations));
      tau.add(kendall_tau(et.scores, run.scores));
    }
    table.add_row({cell(n), cell(steps_per_cycle.mean(), 1),
                   format_sci(triplets_per_cycle.mean(), 2),
                   format_sci(dht_per_cycle.mean(), 2), cell(hops.mean(), 2),
                   cell(gossip_cycles.mean(), 1), cell(et_rounds.mean(), 1),
                   cell(tau.mean(), 3)});
  }
  bench::emit(table, "abl_structured");
  std::printf("\nshape check: both substrates need a similar number of "
              "aggregation rounds and agree on the ranking (tau ~ 1), but "
              "the per-cycle transport differs by orders of magnitude: the "
              "DHT routes each partial sum directly in O(log n) hops while "
              "flat gossip ships O(n) triplets per node per step — the "
              "paper's 'performs even better in a structured P2P system'. "
              "Gossip's advantage is needing NO routing structure, "
              "surviving churn and link loss for free.\n");
  return 0;
}
