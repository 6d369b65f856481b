// COMPARE — related-work comparison table (paper section 2): GossipTrust
// against the systems it positions itself against, on identical workloads
// with 20% independent liars:
//
//   * GossipTrust (gossip engine, unstructured — this paper)
//   * EigenTrust (DHT-based, fixed pre-trusted set = the honest top peers)
//   * PowerTrust (DHT-based, look-ahead random walk + power nodes)
//   * local-only scoring (Marti & Garcia-Molina-style limited sharing)
//   * NoTrust (uniform scores)
//
// Reported: honest-peer RMS error vs the honest reference, ranking
// agreement with the reference, malicious reputation gain, and the
// aggregation rounds each system needed.
#include <cstdio>
#include <iostream>

#include "baseline/eigentrust.hpp"
#include "baseline/local_only.hpp"
#include "baseline/power_iteration.hpp"
#include "baseline/powertrust.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "graph/topology.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("baseline_comparison", argc, argv);
  bench::print_preamble("COMPARE related-work comparison",
                        "section 2 positioning, common workload");
  const std::size_t n = bench::quick_mode() ? 300 : 1000;
  const double gamma = 0.2;

  struct Row {
    RunningStats rms, tau, gain, rounds;
  };
  enum { kGossipTrust, kEigenTrust, kPowerTrust, kLocal, kNoTrust, kCount };
  const char* names[kCount] = {"GossipTrust", "EigenTrust", "PowerTrust",
                               "local-only", "NoTrust"};
  Row rows[kCount];

  for (const auto seed : bench::point_seeds()) {
    const auto w = bench::ThreatWorkload::make(n, gamma, false, 5, seed);
    const auto reference = baseline::plain_power_iteration(w.honest).scores;

    auto add = [&](int which, const std::vector<double>& scores, double rounds) {
      rows[which].rms.add(threat::honest_rms_error(w.peers, reference, scores));
      rows[which].tau.add(kendall_tau(reference, scores));
      rows[which].gain.add(
          threat::malicious_reputation_gain(w.peers, reference, scores));
      rows[which].rounds.add(rounds);
    };

    {
      core::GossipTrustConfig cfg;
      cfg.max_cycles = 25;
      core::GossipTrustEngine engine(n, cfg);
      bench::attach_engine(engine);
      Rng rng(seed ^ 0xc09a);
      const auto run = engine.run(w.attacked, rng);
      add(kGossipTrust, run.scores, static_cast<double>(run.num_cycles()));
    }
    {
      // EigenTrust's pre-trusted set: the honest reference's top 1% — the
      // out-of-band bootstrap trust EigenTrust assumes.
      const auto pretrusted = top_k_indices(reference, std::max<std::size_t>(1, n / 100));
      const auto et = baseline::eigentrust(w.attacked, pretrusted, 0.15, 1e-6);
      add(kEigenTrust, et.scores, static_cast<double>(et.iterations));
    }
    {
      const auto pt = baseline::powertrust(w.attacked, 0.15, 0.01, 1e-6);
      add(kPowerTrust, pt.scores, static_cast<double>(pt.iterations));
    }
    {
      // Local-only: average over observers of their neighborhood scores —
      // evaluated as the view of a random honest peer.
      Rng rng(seed ^ 0x10ca1);
      graph::Graph overlay = graph::make_gnutella_like(n, rng);
      trust::NodeId observer = 0;
      while (w.peers[observer].type != threat::PeerType::kHonest) ++observer;
      const auto local =
          baseline::neighborhood_scores(w.attacked_ledger, overlay, observer);
      add(kLocal, local, 1.0);
    }
    add(kNoTrust, baseline::notrust_scores(n), 0.0);
  }

  Table table("20% independent liars, n = " + std::to_string(n) +
              ", reference = honest-feedback eigenvector");
  table.set_header({"system", "honest RMS", "ranking tau", "malicious gain",
                    "rounds"});
  for (int k = 0; k < kCount; ++k) {
    table.add_row({names[k], cell(rows[k].rms.mean(), 4),
                   cell(rows[k].tau.mean(), 3), cell(rows[k].gain.mean(), 2),
                   cell(rows[k].rounds.mean(), 1)});
  }
  bench::emit(table, "compare_baselines");
  std::printf("\nshape check: the three global aggregators land on nearly the "
              "same ranking (GossipTrust does it without any DHT); PowerTrust's "
              "look-ahead walk converges in the fewest rounds; local-only "
              "scoring has no global view (low tau) and NoTrust none at all — "
              "why global aggregation is worth its cost.\n");
  return 0;
}
