// File-sharing scenario (the paper's motivating application, section 6.4):
// a Gnutella-like network serves queries; 20% of peers are malicious and
// respond with inauthentic files. Compare reputation-guided source
// selection (GossipTrust) against random selection (NoTrust).
//
//   $ ./filesharing_demo [n] [malicious_pct]
#include <cstdio>
#include <iostream>

#include "baseline/local_only.hpp"
#include "common/knob.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "filesharing/simulation.hpp"
#include "graph/topology.hpp"

using namespace gt;

namespace {

filesharing::ScoreProvider gossip_trust_provider(std::size_t n) {
  return [n](const trust::SparseMatrix& s, Rng& rng) {
    core::GossipTrustConfig cfg;
    cfg.epsilon = 1e-3;  // loose thresholds: selection only needs ranking
    cfg.delta = 1e-2;
    core::GossipTrustEngine engine(n, cfg);
    return engine.run(s, rng).scores;
  };
}

filesharing::SimulationStats run_system(std::size_t n, double malicious,
                                        filesharing::SelectionPolicy policy,
                                        filesharing::ScoreProvider provider,
                                        std::uint64_t seed) {
  Rng rng(seed);
  threat::ThreatConfig tcfg;
  tcfg.n = n;
  tcfg.malicious_fraction = malicious;
  const auto peers = threat::make_population(tcfg, rng);

  filesharing::CatalogConfig ccfg;
  ccfg.num_peers = n;
  ccfg.num_files = 20000;
  const filesharing::FileCatalog catalog(ccfg, rng);
  filesharing::WorkloadConfig wcfg;
  wcfg.num_files = ccfg.num_files;
  const filesharing::QueryWorkload workload(wcfg);
  overlay::OverlayManager om(graph::make_gnutella_like(n, rng));

  filesharing::SimulationConfig scfg;
  scfg.total_queries = 5000;
  scfg.queries_per_refresh = 1000;  // paper: refresh after 1,000 queries
  scfg.policy = policy;
  filesharing::SharingSimulation sim(scfg, catalog, workload, om, peers,
                                     std::move(provider));
  Rng qrng(seed + 99);
  return sim.run(qrng);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 500;
  double malicious_pct = 20.0;
  knob::Cli("filesharing_demo",
            {{"N", "", knob::into(n, 10)},
             {"MALICIOUS_PCT", "", knob::into(malicious_pct, 0.0, 100.0)}})
      .parse_or_exit(argc, argv);
  const double malicious = malicious_pct / 100.0;
  std::printf("file sharing on %zu peers, %.0f%% malicious, 20k files, "
              "5000 queries\n\n",
              n, malicious * 100);

  const auto with_trust =
      run_system(n, malicious, filesharing::SelectionPolicy::kHighestReputation,
                 gossip_trust_provider(n), 1);
  const auto no_trust = run_system(
      n, malicious, filesharing::SelectionPolicy::kRandom,
      [](const trust::SparseMatrix& s, Rng&) {
        return baseline::notrust_scores(s.size());
      },
      1);

  Table table("Query success rate (authentic downloads / queries)");
  table.set_header({"system", "success", "hits", "inauthentic", "misses",
                    "flood msgs/query"});
  auto row = [&](const char* name, const filesharing::SimulationStats& st) {
    table.add_row({name, cell(st.success_rate(), 3), cell(st.hits),
                   cell(st.inauthentic), cell(st.misses),
                   cell(static_cast<double>(st.flood_messages) /
                            static_cast<double>(st.queries),
                        1)});
  };
  row("GossipTrust", with_trust);
  row("NoTrust", no_trust);
  table.print(std::cout);

  std::printf("\nper-window success (each window = 1000 queries):\n  GossipTrust:");
  for (const auto w : with_trust.success_per_window) std::printf(" %.3f", w);
  std::printf("\n  NoTrust:    ");
  for (const auto w : no_trust.success_per_window) std::printf(" %.3f", w);
  std::printf("\n");
  return 0;
}
