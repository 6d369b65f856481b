// FIG5 — paper Figure 5: "Query success rate in simulated P2P file-sharing
// applications" — GossipTrust vs NoTrust as the malicious fraction grows.
//
// Section 6.4 workload: 100k files, replica counts ~ power law (phi = 1.2),
// files-per-peer ~ Saroiu, two-segment Zipf query popularity (phi = 0.63
// for ranks 1..250, 1.24 below), queries flooded over a Gnutella-like
// overlay, provider = highest-reputation responder (GossipTrust) or a
// random responder (NoTrust), reputations refreshed every 1,000 queries by
// the real gossip engine. Malicious peers serve inauthentic files (rate
// inversely tied to their trustworthiness) and lie in feedback.
// Expected shape: GossipTrust degrades only slightly with more malicious
// peers (~80% success at 20% malicious); NoTrust falls sharply.
#include <cstdio>
#include <iostream>

#include "baseline/local_only.hpp"
#include "bench_common.hpp"
#include "core/engine.hpp"
#include "filesharing/simulation.hpp"
#include "graph/topology.hpp"

using namespace gt;

namespace {

filesharing::SimulationStats run_system(std::size_t n, std::size_t num_files,
                                        double gamma,
                                        filesharing::SelectionPolicy policy,
                                        std::uint64_t seed) {
  Rng rng(seed);
  threat::ThreatConfig tcfg;
  tcfg.n = n;
  tcfg.malicious_fraction = gamma;
  const auto peers = threat::make_population(tcfg, rng);

  filesharing::CatalogConfig ccfg;
  ccfg.num_peers = n;
  ccfg.num_files = num_files;
  const filesharing::FileCatalog catalog(ccfg, rng);
  filesharing::WorkloadConfig wcfg;
  wcfg.num_files = num_files;
  const filesharing::QueryWorkload workload(wcfg);
  overlay::OverlayManager om(graph::make_gnutella_like(n, rng));

  filesharing::ScoreProvider provider;
  if (policy == filesharing::SelectionPolicy::kHighestReputation) {
    provider = [n](const trust::SparseMatrix& s, Rng& prng) {
      core::GossipTrustConfig cfg;
      // Source selection consumes only the ranking; Table 3 shows even the
      // loose (1e-3, 1e-2) setting keeps aggregation error ~4e-3, far below
      // ranking granularity — so the refresh uses it to stay fast.
      cfg.epsilon = 1e-3;
      cfg.delta = 1e-2;
      core::GossipTrustEngine engine(n, cfg);
      bench::attach_engine(engine);
      return engine.run(s, prng).scores;
    };
  } else {
    provider = [](const trust::SparseMatrix& s, Rng&) {
      return baseline::notrust_scores(s.size());
    };
  }

  filesharing::SimulationConfig scfg;
  scfg.total_queries = bench::quick_mode() ? 2000 : 6000;
  scfg.queries_per_refresh = 1000;  // paper: update after 1,000 queries
  scfg.policy = policy;
  filesharing::SharingSimulation sim(scfg, catalog, workload, om, peers, provider);
  Rng qrng(seed ^ 0xf165);
  return sim.run(qrng);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("fig5_filesharing", argc, argv);
  bench::print_preamble("FIG5 P2P file-sharing query success rate",
                        "Figure 5 (section 6.4, file-sharing benchmark)");
  const std::size_t n = bench::quick_mode() ? 300 : 1000;
  const std::size_t num_files = bench::quick_mode() ? 20000 : 100000;
  const std::vector<double> fractions =
      bench::quick_mode() ? std::vector<double>{0.0, 0.2}
                   : std::vector<double>{0.0, 0.05, 0.1, 0.15, 0.2, 0.3};

  Table table("Query success rate, n = " + std::to_string(n) + ", " +
              std::to_string(num_files) + " files");
  table.set_header({"malicious %", "GossipTrust", "NoTrust", "GT last window",
                    "NT last window"});

  for (const double gamma : fractions) {
    RunningStats gt_rate, nt_rate, gt_last, nt_last;
    for (const auto seed : bench::point_seeds()) {
      const auto with_trust = run_system(
          n, num_files, gamma, filesharing::SelectionPolicy::kHighestReputation,
          seed);
      const auto no_trust =
          run_system(n, num_files, gamma, filesharing::SelectionPolicy::kRandom,
                     seed);
      gt_rate.add(with_trust.success_rate());
      nt_rate.add(no_trust.success_rate());
      if (!with_trust.success_per_window.empty())
        gt_last.add(with_trust.success_per_window.back());
      if (!no_trust.success_per_window.empty())
        nt_last.add(no_trust.success_per_window.back());
    }
    table.add_row({cell(gamma * 100, 0), cell(gt_rate.mean(), 3),
                   cell(nt_rate.mean(), 3), cell(gt_last.mean(), 3),
                   cell(nt_last.mean(), 3)});
  }
  bench::emit(table, "fig5");
  std::printf("\nshape check: GossipTrust holds ~0.8+ success even at 20%% "
              "malicious (last window, after reputations warm up) while "
              "NoTrust falls roughly linearly with the malicious share.\n");
  return 0;
}
