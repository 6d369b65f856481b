// BENCH-MILLION — million-node fig3-shape run on the sharded engine.
//
// Drives a ShardedGossip aggregation (K replicated components, pseudo-
// random per-node shares, w = 1 — the paper's mean-share primitive under
// the Figure 3 convergence curves) over a connected Erdős–Rényi overlay
// at n = 1,000,000 and reports the two numbers the memory plan is judged
// by:
//
//     events_per_sec   executed scheduler events / wall seconds
//     bytes_per_node   (SoA gossip state + CSR adjacency + Bloom score
//                       store) / n
//
// Output is one JSON document on stdout (scripts/bench_record.py folds it
// into BENCH_6.json); progress narration goes to stderr. The bench takes
// no arguments. GT_QUICK=1 shrinks to the CI-gated 50k-node case;
// GT_MILLION_N overrides n explicitly (>= 2); GT_THREADS sets the worker
// count (1..knob::kMaxThreads, default 1). Any argument, or a value that
// does not parse in range, exits 2 with a message.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bloom/score_store.hpp"
#include "common/knob.hpp"
#include "common/rng.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"

using namespace gt;

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t n = 0;  // 0 = unset: 1M, or 50k with GT_QUICK
  std::size_t threads = 1;
  knob::Cli("bench_million",
            {{"GT_QUICK", "", knob::into(quick)},
             {"GT_MILLION_N", "", knob::into(n, 2)},
             {"GT_THREADS", "", knob::into(threads, 1, knob::kMaxThreads)}})
      .parse_or_exit(argc, argv);
  if (n == 0) n = quick ? 50'000 : 1'000'000;
  const char* mode = quick ? "quick" : "full";
  std::fprintf(stderr, "bench_million: n=%zu mode=%s threads=%zu\n", n, mode,
               threads);

  Rng grng(0x517e5 + n);
  graph::Graph g = graph::make_erdos_renyi(n, n * 3, grng);
  const graph::CsrView csr(g);
  std::fprintf(stderr, "bench_million: overlay %zu nodes / %zu edges, CSR %zu bytes\n",
               csr.num_nodes(), csr.num_edges(), csr.storage_bytes());

  gossip::ShardedGossipConfig cfg;
  cfg.components = 4;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = 1e-3;
  cfg.stable_rounds = 3;
  cfg.horizon = 200.0;
  cfg.seed = 42;
  cfg.shards = 8;  // fixed grid so the trajectory is thread-count-invariant
  cfg.threads = threads;
  cfg.sample_every = 16;
  gossip::ShardedGossip eng(csr, cfg);
  eng.initialize_fig3(/*workload_seed=*/7);

  const auto t0 = std::chrono::steady_clock::now();
  const auto res = eng.run();
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  const double events_per_sec =
      wall > 0.0 ? static_cast<double>(res.events) / wall : 0.0;

  // The per-node reputation memory plan: each node's converged scores are
  // held in the bucketed Bloom store, not an explicit vector. Build it
  // over a power-law score vector with a blacklisted zero tail — the
  // post-eviction shape section 7 sizes the store for.
  Rng srng(0xb100f);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = srng.next_double();
    scores[i] = (i % 100 == 0) ? 0.0 : std::pow(u, 3.0) + 1e-9;
  }
  bloom::ScoreStoreConfig scfg;
  scfg.num_buckets = 8;
  scfg.bits_per_peer = 8.0;
  const bloom::BloomScoreStore store(scores, scfg);

  const std::size_t state_bytes = eng.state_bytes();
  const std::size_t csr_bytes = csr.storage_bytes();
  const std::size_t bloom_bytes = store.storage_bytes();
  const double bytes_per_node =
      static_cast<double>(state_bytes + csr_bytes + bloom_bytes) /
      static_cast<double>(n);
  const double final_error =
      res.error_curve.empty() ? -1.0 : res.error_curve.back().second;

  std::fprintf(stderr,
               "bench_million: %s, %llu events in %.2f s (%.3e ev/s), "
               "%.1f bytes/node, final mean error %.3e\n",
               res.converged ? "converged" : "hit horizon",
               static_cast<unsigned long long>(res.events), wall,
               events_per_sec, bytes_per_node, final_error);

  const std::string case_name = std::string("MillionNode/") + mode;
  std::printf("{\n");
  std::printf("  \"bench\": \"bench_million\",\n");
  std::printf("  \"cases\": {\n");
  std::printf("    \"%s\": {\n", case_name.c_str());
  std::printf("      \"n\": %zu,\n", n);
  std::printf("      \"shards\": %zu,\n", eng.num_shards());
  std::printf("      \"threads\": %zu,\n", threads);
  std::printf("      \"converged\": %s,\n", res.converged ? "true" : "false");
  std::printf("      \"windows\": %llu,\n",
              static_cast<unsigned long long>(res.windows));
  std::printf("      \"events\": %llu,\n",
              static_cast<unsigned long long>(res.events));
  std::printf("      \"wall_seconds\": %.6f,\n", wall);
  std::printf("      \"events_per_sec\": %.6e,\n", events_per_sec);
  std::printf("      \"ns_per_event\": %.6f,\n",
              events_per_sec > 0.0 ? 1e9 / events_per_sec : -1.0);
  std::printf("      \"state_bytes\": %zu,\n", state_bytes);
  std::printf("      \"csr_bytes\": %zu,\n", csr_bytes);
  std::printf("      \"bloom_bytes\": %zu,\n", bloom_bytes);
  std::printf("      \"bytes_per_node\": %.6f,\n", bytes_per_node);
  std::printf("      \"final_mean_abs_error\": %.6e,\n", final_error);
  std::printf("      \"gated\": %s\n", quick ? "true" : "false");
  std::printf("    }\n");
  std::printf("  }\n");
  std::printf("}\n");
  return res.converged || !res.error_curve.empty() ? 0 : 1;
}
