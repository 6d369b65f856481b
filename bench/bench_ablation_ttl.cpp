// ABL-TTL — flooding scope on unstructured overlays.
//
// Section 6.4 floods each query "over the entire P2P network"; real
// Gnutella bounds queries with TTL 7 because flooding cost explodes with
// scope. This ablation sweeps the TTL and reports what the paper's
// full-flood assumption costs and buys: query hit rate, reputation-guided
// success, and flood messages per query.
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "bench_common.hpp"
#include "filesharing/simulation.hpp"
#include "graph/topology.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bench::init("ablation_ttl", argc, argv);
  bench::print_preamble("ABL-TTL query flooding scope",
                        "section 6.4 flooding-cost tradeoff");
  const std::size_t n = bench::quick_mode() ? 200 : 500;
  const std::size_t num_files = bench::quick_mode() ? 10000 : 30000;
  const std::vector<std::size_t> ttls =
      bench::quick_mode() ? std::vector<std::size_t>{2, 7}
                   : std::vector<std::size_t>{1, 2, 3, 4, 5, 7};

  Table table("n = " + std::to_string(n) + ", 20% malicious, " +
              std::to_string(num_files) + " files, reputation-guided selection");
  table.set_header({"TTL", "hit rate", "success rate", "flood msgs/query"});

  for (const auto ttl : ttls) {
    RunningStats hits, success, msgs;
    for (const auto seed : bench::point_seeds()) {
      Rng rng(seed);
      threat::ThreatConfig tcfg;
      tcfg.n = n;
      tcfg.malicious_fraction = 0.2;
      const auto peers = threat::make_population(tcfg, rng);
      filesharing::CatalogConfig ccfg;
      ccfg.num_peers = n;
      ccfg.num_files = num_files;
      const filesharing::FileCatalog catalog(ccfg, rng);
      filesharing::WorkloadConfig wcfg;
      wcfg.num_files = num_files;
      const filesharing::QueryWorkload workload(wcfg);
      overlay::OverlayManager om(graph::make_gnutella_like(n, rng));

      filesharing::SimulationConfig scfg;
      scfg.total_queries = bench::quick_mode() ? 1000 : 3000;
      scfg.queries_per_refresh = 1000;
      scfg.flood_ttl = ttl;
      scfg.policy = filesharing::SelectionPolicy::kHighestReputation;
      filesharing::SharingSimulation sim(
          scfg, catalog, workload, om, peers,
          [](const trust::SparseMatrix& s, Rng&) {
            return baseline::power_iteration(s, 0.15, 0.01, 1e-10).scores;
          });
      Rng qrng(seed ^ 0x771);
      const auto stats = sim.run(qrng);
      hits.add(static_cast<double>(stats.hits) / static_cast<double>(stats.queries));
      success.add(stats.success_rate());
      msgs.add(static_cast<double>(stats.flood_messages) /
               static_cast<double>(stats.queries));
    }
    table.add_row({cell(ttl), cell(hits.mean(), 3), cell(success.mean(), 3),
                   cell(msgs.mean(), 0)});
  }
  bench::emit(table, "abl_ttl");
  std::printf("\nshape check: hit rate saturates once the TTL covers the "
              "overlay's ~log(n) diameter while flood cost keeps growing to "
              "its full-coverage plateau — TTL ~4-5 already buys full-flood "
              "success at this scale, and below that rare files go "
              "unfound.\n");
  return 0;
}
