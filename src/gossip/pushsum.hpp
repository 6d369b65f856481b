// Scalar push-sum gossip (Algorithm 1 of the paper; Kempe et al., FOCS'03).
//
// Computes one weighted sum across n nodes: node i starts with the pair
// (x_i(0), w_i(0)); every step each node halves its pair, keeps one half
// and pushes the other to a uniformly random node; received halves are
// summed (Eqs. 3-4). The ratio beta_i = x_i / w_i converges on every node
// to  sum_i x_i(0) / sum_i w_i(0)  in O(log n) steps. A node declares
// itself converged when its ratio moved by at most epsilon for
// `stable_rounds` consecutive steps (Algorithm 1 line 14, hardened against
// the step-1 false positive the paper's Table 1 "infinity" entries hint at).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/topology.hpp"
#include "telemetry/metrics.hpp"

namespace gt::gossip {

using NodeId = std::size_t;

/// Weights at or below this are treated as zero: the node has not yet
/// received any consensus-factor mass for the component and its ratio is
/// undefined (the paper's Table 1 shows this as an "infinity" entry).
inline constexpr double kWeightFloor = 1e-300;

/// Convergence/termination knobs shared by scalar and vector gossip.
struct PushSumConfig {
  double epsilon = 1e-4;            ///< gossip error threshold (paper's eps)
  std::size_t stable_rounds = 2;    ///< consecutive stable steps required
  std::size_t max_steps = 100000;   ///< hard safety cap
  double loss_probability = 0.0;    ///< i.i.d. message loss (failure injection)
  bool neighbors_only = false;      ///< push to overlay neighbors instead of any node
  std::size_t num_threads = 1;      ///< vector-gossip kernel lanes (0 = hardware)
  bool batch_wire = true;           ///< async: coalesce a push's active triplets
                                    ///< into one wire message per destination
                                    ///< (false = one message per triplet; same
                                    ///< math, different traffic accounting)
};

/// Outcome of a push-sum run.
struct PushSumResult {
  std::size_t steps = 0;
  bool converged = false;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_lost = 0;
};

/// Synchronous-round scalar push-sum over n nodes.
class ScalarPushSum {
 public:
  /// x0/w0: per-node initial pairs; sizes must match and be non-empty.
  ScalarPushSum(std::vector<double> x0, std::vector<double> w0, PushSumConfig config);

  /// Runs rounds until every node is stable (or max_steps). An optional
  /// overlay restricts push targets to graph neighbors when
  /// config.neighbors_only is set.
  PushSumResult run(Rng& rng, const graph::Graph* overlay = nullptr);

  /// Executes exactly one synchronous gossip round.
  void step(Rng& rng, const graph::Graph* overlay, PushSumResult& result);

  std::size_t num_nodes() const noexcept { return x_.size(); }

  /// Node-local estimate x_i / w_i; NaN while w_i == 0.
  double estimate(NodeId i) const;

  /// Total x mass currently in the system (conserved without loss).
  double total_x() const;
  /// Total w mass (conserved without loss).
  double total_w() const;

  /// Largest |estimate(i) - estimate(j)| over nodes with defined estimates.
  double max_disagreement() const;

  /// Mirrors message counters (`pushsum.messages_sent` / `.messages_lost`)
  /// and a per-step timer histogram (`pushsum.step_seconds`) into
  /// `registry` (lane 0; the scalar kernel is serial). Null detaches.
  /// Purely observational: gossip results are identical either way.
  void attach_telemetry(telemetry::MetricsRegistry* registry);

 private:
  PushSumConfig config_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter m_sent_, m_lost_;
  telemetry::Histogram m_step_seconds_;
  std::vector<double> x_;
  std::vector<double> w_;
  std::vector<double> prev_ratio_;
  std::vector<std::size_t> stable_count_;
  std::vector<double> inbox_x_;
  std::vector<double> inbox_w_;
};

}  // namespace gt::gossip
