// Bit-identity gate for the event-core fast path.
//
// The zero-allocation scheduler, pooled network messages, and batched
// gossip delivery are pure mechanical optimisations: same seed must mean
// the same results, bit for bit. These goldens were captured on the tree
// immediately *before* the fast path landed (the std::function scheduler +
// std::priority_queue + shared_ptr payload implementation), so they pin
// the refactored code to the legacy behaviour:
//   * fig3-style engine aggregation at n in {64, 512}, threads in {1, 8}
//     — final reputation vector and every deterministic field of the
//     per-cycle telemetry records;
//   * asynchronous gossip over Scheduler + Network with every fault knob
//     drawing randomness (loss, jitter, duplication, corruption), legacy
//     fire-and-forget and ack/retransmit reliability modes — final
//     estimates, protocol counters, and traffic counters.
// Any change to RNG draw order, event ordering, or floating-point
// accumulation order shows up here as a hash mismatch.
//
// To re-capture after an *intentional* behaviour change, run with
// GT_PRINT_GOLDEN=1 and paste the printed constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "gossip/async_gossip.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "net/network.hpp"
#include "sim/scheduler.hpp"
#include "support/scoped_simd_env.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"
#include "trust/matrix.hpp"

namespace gt {
namespace {

/// FNV-1a over raw bytes: doubles hash by bit pattern, so two runs agree
/// only when every value is binary-identical.
class Fnv {
 public:
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < len; ++k) {
      h_ ^= p[k];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

trust::SparseMatrix gate_matrix(std::size_t n, std::uint64_t seed) {
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig cfg;
  cfg.n = n;
  cfg.d_max = std::min<std::size_t>(200, n / 2);
  cfg.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);
  Rng rng(seed);
  const std::vector<double> quality(n, 0.9);
  trust::generate_honest_feedback(ledger, quality, cfg, rng);
  return ledger.normalized_matrix();
}

/// Fig3-style aggregation: the engine drives vector gossip to
/// epsilon-stability for a few cycles; the hash covers the final scores
/// plus every deterministic per-cycle record field (wall-clock phase
/// timings are excluded — they are not part of the bit-identity contract).
std::uint64_t engine_hash(std::size_t n, std::size_t threads) {
  const auto s = gate_matrix(n, 42);
  core::GossipTrustConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 2;
  cfg.max_cycles = 3;
  cfg.num_threads = threads;
  core::GossipTrustEngine engine(n, cfg);
  Rng rng(0xf16f3 + n);
  const auto res = engine.run(s, rng);

  Fnv h;
  for (const double v : res.scores) h.f64(v);
  h.u64(res.converged ? 1 : 0);
  for (const auto& c : res.cycles) {
    h.u64(c.gossip_steps);
    h.u64(c.gossip_converged ? 1 : 0);
    h.u64(c.degraded ? 1 : 0);
    h.u64(c.messages_sent);
    h.u64(c.messages_lost);
    h.u64(c.triplets_sent);
    h.u64(c.active_triplets);
    h.u64(c.zero_components_skipped);
    h.f64(c.change_from_previous);
  }
  return h.value();
}

/// Engine cycles over the branches engine_hash never reaches: message
/// loss (lost-payload accounting), a gossip-layer liar and a withholder,
/// and an alive mask that changes between cycles (dead rows, a cleared
/// mask, adversaries that die and return). Four run_cycle calls share one
/// engine, so the hash also pins how per-cycle state is rebuilt between
/// cycles. Same fields as engine_hash.
std::uint64_t faulted_engine_hash(std::size_t threads) {
  const std::size_t n = 128;
  const auto s = gate_matrix(n, 77);
  core::GossipTrustConfig cfg;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 2;
  cfg.max_gossip_steps = 400;
  cfg.loss_probability = 0.1;
  cfg.num_threads = threads;
  core::GossipTrustEngine engine(n, cfg);
  std::vector<double> scale(n, 1.0);
  scale[3] = 1.5;  // liar: mints own-component x mass on the wire
  std::vector<std::uint8_t> withhold(n, 0);
  withhold[5] = 1;  // withholder: ships only its own component
  engine.set_gossip_adversary(scale, withhold);

  // Cycle masks: some peers down, everyone up (no mask), a different set
  // down including the liar, then the withholder down.
  std::vector<std::vector<std::uint8_t>> masks(4, std::vector<std::uint8_t>(n, 1));
  for (std::size_t i = 0; i < n; i += 7) masks[0][i] = 0;
  for (std::size_t i = 1; i < n; i += 5) masks[2][i] = 0;
  masks[2][3] = 0;
  for (std::size_t i = 2; i < n; i += 9) masks[3][i] = 0;
  masks[3][5] = 0;

  auto v = engine.initial_scores();
  std::vector<core::NodeId> power;
  Rng rng(0xfa17ed);
  Fnv h;
  for (std::size_t t = 0; t < masks.size(); ++t) {
    const std::vector<std::uint8_t>* alive = t == 1 ? nullptr : &masks[t];
    const auto c = engine.run_cycle(s, v, power, rng, nullptr, alive);
    h.u64(c.gossip_steps);
    h.u64(c.gossip_converged ? 1 : 0);
    h.u64(c.degraded ? 1 : 0);
    h.u64(c.messages_sent);
    h.u64(c.messages_lost);
    h.u64(c.triplets_sent);
    h.u64(c.active_triplets);
    h.u64(c.zero_components_skipped);
    h.f64(c.change_from_previous);
  }
  for (const double x : v) h.f64(x);
  for (const auto p : power) h.u64(p);
  return h.value();
}

/// Asynchronous gossip with every network fault knob active, so the RNG
/// stream covers loss, corruption, duplication, and jitter draws, and the
/// event order covers duplicate-before-primary scheduling.
std::uint64_t async_hash(bool acks) {
  const std::size_t n = 48;
  sim::Scheduler sched;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 1.0;
  ncfg.jitter = 0.5;
  ncfg.loss_probability = 0.05;
  ncfg.duplicate_probability = 0.02;
  ncfg.corrupt_probability = 0.01;
  net::Network network(sched, n, ncfg, Rng(7));

  gossip::PushSumConfig pcfg;
  pcfg.epsilon = 1e-3;
  pcfg.stable_rounds = 3;
  gossip::AsyncGossip::Timing timing;
  timing.period = 1.0;
  timing.timeout = 400.0;
  gossip::AsyncGossip::Reliability rel;
  if (acks) {
    rel.acks = true;
    rel.ack_timeout = 4.0;
  }
  gossip::AsyncGossip gossip(sched, network, pcfg, timing, rel);

  const auto s = gate_matrix(n, 1234);
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));
  gossip.initialize(s, v);
  Rng rng(99);
  const auto res = gossip.run(rng);
  sched.run_until();  // drain in-flight deliveries and retry timers

  Fnv h;
  for (net::NodeId i = 0; i < n; ++i)
    for (net::NodeId j = 0; j < n; ++j) h.f64(gossip.estimate(i, j));
  const auto& st = gossip.stats();
  h.u64(st.send_events);
  h.u64(st.messages_sent);
  h.u64(st.messages_dropped);
  h.u64(st.acks_sent);
  h.u64(st.acks_dropped);
  h.u64(st.retransmits);
  h.u64(st.duplicates_ignored);
  h.u64(st.mass_reclaims);
  h.u64(st.suspicions);
  h.f64(res.sim_time);
  const auto& ts = network.stats();
  h.u64(ts.messages_sent);
  h.u64(ts.messages_delivered);
  h.u64(ts.messages_dropped);
  h.u64(ts.messages_corrupted);
  h.u64(ts.messages_duplicated);
  h.u64(ts.duplicates_delivered);
  h.u64(ts.bytes_sent);
  h.u64(ts.bytes_delivered);
  h.u64(ts.bytes_dropped);
  return h.value();
}

/// Sharded million-node path at gate scale: the hash covers every final
/// per-slot estimate plus the full counter block, run once as the
/// single-queue oracle (shards = 1) and once sharded on 8 threads. Both
/// must match each other AND the pinned golden — the golden catches a
/// determinism regression that breaks both paths identically.
std::uint64_t sharded_hash(std::size_t n, std::size_t shards,
                           std::size_t threads) {
  Rng grng(0x5eed + n);
  graph::Graph g = graph::make_erdos_renyi(n, n * 3, grng);
  graph::make_connected(g, grng);
  const graph::CsrView csr(g);

  gossip::ShardedGossipConfig cfg;
  cfg.components = 4;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = 1e-4;
  cfg.stable_rounds = 3;
  cfg.horizon = 400.0;
  cfg.seed = 42;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.sample_every = 8;
  gossip::ShardedGossip eng(csr, cfg);
  eng.initialize_fig3(7);
  const auto res = eng.run();

  Fnv h;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < cfg.components; ++c) h.f64(eng.estimate(i, c));
  h.f64(res.sim_time);
  h.u64(res.converged ? 1 : 0);
  h.u64(res.events);
  h.u64(res.windows);
  h.u64(res.pushes);
  h.u64(res.deliveries);
  h.u64(res.sends);
  h.u64(res.wire_bytes);
  for (const auto& [t, err] : res.error_curve) {
    h.f64(t);
    h.f64(err);
  }
  return h.value();
}

bool print_golden() { return std::getenv("GT_PRINT_GOLDEN") != nullptr; }

void check(const char* label, std::uint64_t got, std::uint64_t want) {
  if (print_golden()) {
    std::printf("GOLDEN %s = 0x%016llxULL\n", label,
                static_cast<unsigned long long>(got));
    return;
  }
  EXPECT_EQ(got, want) << label;
}

TEST(BitIdentityGate, EngineFig3StyleN64) {
  const std::uint64_t h1 = engine_hash(64, 1);
  const std::uint64_t h8 = engine_hash(64, 8);
  check("engine_n64_t1", h1, 0x17cc5f44ae2c0bf4ULL);
  check("engine_n64_t8", h8, 0x17cc5f44ae2c0bf4ULL);
  // Thread invariance is part of the same contract: lane count must not
  // perturb a single bit.
  EXPECT_EQ(h1, h8);
}

TEST(BitIdentityGate, EngineFig3StyleN512) {
  const std::uint64_t h1 = engine_hash(512, 1);
  const std::uint64_t h8 = engine_hash(512, 8);
  check("engine_n512_t1", h1, 0xe02602e374f9bf07ULL);
  check("engine_n512_t8", h8, 0xe02602e374f9bf07ULL);
  EXPECT_EQ(h1, h8);
}

TEST(BitIdentityGate, EngineLossMaskAdversary) {
  const std::uint64_t h1 = faulted_engine_hash(1);
  const std::uint64_t h4 = faulted_engine_hash(4);
  check("engine_faulted_t1", h1, 0x9cc0a4e6426e43b8ULL);
  check("engine_faulted_t4", h4, 0x9cc0a4e6426e43b8ULL);
  EXPECT_EQ(h1, h4);
}

TEST(BitIdentityGate, AsyncGossipFireAndForget) {
  check("async_legacy", async_hash(/*acks=*/false), 0xf520b13e53da5f38ULL);
}

TEST(BitIdentityGate, AsyncGossipReliable) {
  check("async_acks", async_hash(/*acks=*/true), 0xba25d94f580b34ccULL);
}

TEST(BitIdentityGate, ShardedGossipN64) {
  const std::uint64_t oracle = sharded_hash(64, /*shards=*/1, /*threads=*/1);
  const std::uint64_t sharded = sharded_hash(64, /*shards=*/0, /*threads=*/8);
  check("sharded_n64_oracle", oracle, 0x92aadb162daee980ULL);
  EXPECT_EQ(oracle, sharded);
}

TEST(BitIdentityGate, ShardedGossipN512) {
  const std::uint64_t oracle = sharded_hash(512, /*shards=*/1, /*threads=*/1);
  const std::uint64_t sharded = sharded_hash(512, /*shards=*/0, /*threads=*/8);
  check("sharded_n512_oracle", oracle, 0x0ae8bf223fb6e301ULL);
  EXPECT_EQ(oracle, sharded);
}

// The SIMD kernels are elementwise transcriptions of the scalar oracle, so
// the *same* goldens must hold at every level — no recapture. The engine
// has no level field of its own, so the GT_SIMD kill-switch forces the
// scalar fallback (proving it is still the legacy behaviour); the plain
// run uses whatever level the environment resolves (the detected vector
// level by default, scalar under the CI GT_SIMD=off leg).
TEST(BitIdentityGate, EngineSimdLevelsMatchGolden) {
  {
    test_support::ScopedSimdEnv scalar("scalar");
    check("engine_n64_scalar", engine_hash(64, 8), 0x17cc5f44ae2c0bf4ULL);
    check("engine_n512_scalar", engine_hash(512, 8), 0xe02602e374f9bf07ULL);
  }
  check("engine_n64_vector", engine_hash(64, 8), 0x17cc5f44ae2c0bf4ULL);
  check("engine_n512_vector", engine_hash(512, 8), 0xe02602e374f9bf07ULL);
}

// ShardedGossip runs plain loops and never dispatches: forcing the
// kill-switch must leave both gate sizes on their goldens.
TEST(BitIdentityGate, ShardedSimdLevelsMatchGolden) {
  test_support::ScopedSimdEnv scalar("scalar");
  check("sharded_n64", sharded_hash(64, 1, 1), 0x92aadb162daee980ULL);
  check("sharded_n512", sharded_hash(512, 0, 8), 0x0ae8bf223fb6e301ULL);
}

}  // namespace
}  // namespace gt
