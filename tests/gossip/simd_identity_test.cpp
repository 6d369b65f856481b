// Scalar-vs-SIMD bit-identity at the engine level: full VectorGossip runs
// forced to kScalar and to every vector level this CPU supports must
// produce the same trajectory to the last bit — every per-node estimate,
// every counter, every consensus mean. This is the end-to-end half of the
// determinism argument; the per-kernel sweeps live in
// tests/simd/simd_test.cpp. ShardedGossip does not dispatch at all: its
// check here pins that the GT_SIMD kill-switch cannot move it.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gossip/sharded_gossip.hpp"
#include "gossip/vector_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "simd/simd.hpp"
#include "support/scoped_simd_env.hpp"
#include "trust/matrix.hpp"

namespace gt::gossip {
namespace {

std::vector<simd::SimdLevel> vector_levels() {
  std::vector<simd::SimdLevel> levels;
  if (simd::level_supported(simd::SimdLevel::kAvx2))
    levels.push_back(simd::SimdLevel::kAvx2);
  if (simd::level_supported(simd::SimdLevel::kAvx512))
    levels.push_back(simd::SimdLevel::kAvx512);
  return levels;
}

// Hand-rolled dense-ish matrix: the power-law feedback generator rejects
// tiny n (its pareto mean solver needs d_avg > 1), and the short-tail
// kernel paths we want live exactly at n in {1..9}.
trust::SparseMatrix make_matrix(std::size_t n, std::uint64_t seed) {
  trust::SparseMatrix::Builder b(n);
  Rng rng(seed);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = 0; j < n; ++j) {
      const double v = rng.next_double();
      if (v > 0.25 || i == j) b.add(i, j, 0.05 + v);
    }
  return std::move(b).build().row_normalized();
}

struct VectorRunBits {
  std::vector<std::uint64_t> views;  // every node_view element, bit pattern
  std::vector<std::uint64_t> means;  // consensus_means bit patterns
  std::size_t steps;
  bool converged;
  std::uint64_t messages_sent, messages_lost, triplets_sent, active_triplets;
};

VectorRunBits run_vector(std::size_t n, simd::SimdLevel level,
                         std::size_t threads) {
  // GT_SIMD is the only level selector; force it for this run. The
  // forced level must actually run, whatever GT_SIMD the suite started with.
  test_support::ScopedSimdEnv env(simd::level_name(level));
  PushSumConfig cfg;
  cfg.epsilon = 1e-6;
  cfg.stable_rounds = 2;
  cfg.num_threads = threads;
  VectorGossip vg(n, cfg);
  EXPECT_EQ(vg.simd_level(), simd::resolve_level(level));
  const auto s = make_matrix(n, 7 + n);
  std::vector<double> v(n, 1.0 / static_cast<double>(n));
  vg.initialize(s, v);
  Rng rng(12345);
  const auto res = vg.run(rng);
  VectorRunBits bits;
  bits.steps = res.steps;
  bits.converged = res.converged;
  bits.messages_sent = res.messages_sent;
  bits.messages_lost = res.messages_lost;
  bits.triplets_sent = res.triplets_sent;
  bits.active_triplets = res.active_triplets;
  for (std::size_t i = 0; i < n; ++i)
    for (const double e : vg.node_view(i))
      bits.views.push_back(std::bit_cast<std::uint64_t>(e));
  for (const double m : vg.consensus_means())
    bits.means.push_back(std::bit_cast<std::uint64_t>(m));
  return bits;
}

void expect_same(const VectorRunBits& a, const VectorRunBits& b,
                 const char* what) {
  EXPECT_EQ(a.views, b.views) << what;
  EXPECT_EQ(a.means, b.means) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.messages_lost, b.messages_lost) << what;
  EXPECT_EQ(a.triplets_sent, b.triplets_sent) << what;
  EXPECT_EQ(a.active_triplets, b.active_triplets) << what;
}

TEST(SimdIdentity, VectorGossipScalarVsSimdAcrossSizesAndThreads) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host";
  // Tiny n exercises the kernels' short-tail paths (rows of 1..9
  // elements); 64 exercises the steady dense path; threads 1 and 4 prove
  // the chunk grid and the lane width compose.
  for (const std::size_t n : {1, 2, 3, 7, 8, 9, 64}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const auto scalar = run_vector(n, simd::SimdLevel::kScalar, threads);
      for (const simd::SimdLevel level : levels) {
        const auto vec = run_vector(n, level, threads);
        expect_same(scalar, vec, simd::level_name(level));
      }
    }
  }
}

TEST(SimdIdentity, VectorGossipLossPathIdentical) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "scalar-only host";
  PushSumConfig cfg;
  cfg.epsilon = 1e-6;
  cfg.stable_rounds = 2;
  cfg.loss_probability = 0.2;
  auto run = [&](simd::SimdLevel level) {
    test_support::ScopedSimdEnv env(simd::level_name(level));
    VectorGossip vg(33, cfg);
    const auto s = make_matrix(33, 99);
    std::vector<double> v(33, 1.0 / 33.0);
    vg.initialize(s, v);
    Rng rng(5);
    const auto res = vg.run(rng);
    std::vector<std::uint64_t> bits{res.messages_sent, res.messages_lost,
                                    static_cast<std::uint64_t>(res.steps)};
    for (const double m : vg.consensus_means())
      bits.push_back(std::bit_cast<std::uint64_t>(m));
    return bits;
  };
  const auto scalar = run(simd::SimdLevel::kScalar);
  for (const simd::SimdLevel level : levels)
    EXPECT_EQ(scalar, run(level)) << simd::level_name(level);
}

TEST(SimdIdentity, HeterogeneousPayloadFallbackIdentical) {
  // Nodes track permuted component ids so apply_payload's slot-aligned
  // probe misses and the K-wide scan runs. ShardedGossip's loops are plain
  // C++, so neither the GT_SIMD level nor the shard grid may move a bit:
  // a sharded run at the detected level must match the scalar single-queue
  // oracle, and the mass ledger must close.
  Rng grng(13);
  graph::Graph g = graph::make_erdos_renyi(40, 120, grng);
  graph::make_connected(g, grng);
  const graph::CsrView csr(g);
  const std::size_t k = 4;
  auto run = [&](const char* simd_env, std::size_t shards) {
    test_support::ScopedSimdEnv env(simd_env);
    ShardedGossipConfig cfg;
    cfg.components = k;
    cfg.base_latency = 0.5;
    cfg.epsilon = 1e-4;
    cfg.horizon = 80.0;
    cfg.seed = 3;
    cfg.shards = shards;
    cfg.threads = 2;
    ShardedGossip eng(csr, cfg);
    const std::size_t n = csr.num_nodes();
    std::vector<std::uint32_t> comp(n * k);
    std::vector<double> x0(n * k), w0(n * k, 1.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c) {
        // Rotate the component layout per node: comp ids differ from the
        // sender's slot order for 3 of 4 nodes.
        comp[i * k + c] = static_cast<std::uint32_t>((c + i) % k);
        x0[i * k + c] = 0.25 * static_cast<double>(c + 1);
      }
    eng.initialize(comp, x0, w0);
    const auto res = eng.run();
    EXPECT_LE(eng.mass_summary().max_gap(), 1e-9);
    std::vector<std::uint64_t> bits{res.events, res.triplets_unmatched};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c)
        bits.push_back(std::bit_cast<std::uint64_t>(eng.estimate(i, c)));
    return bits;
  };
  EXPECT_EQ(run("off", 1), run("auto", 2));
}

}  // namespace
}  // namespace gt::gossip
