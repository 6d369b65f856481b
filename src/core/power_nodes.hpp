// Power-node selection and greedy-factor mixing.
//
// GossipTrust inherits PowerTrust's power nodes: after every aggregation
// cycle the q highest-reputation peers (at most 1% of n by default) are
// designated power nodes, and the next iterate is damped toward them with
// greedy factor alpha:
//
//   V <- (1 - alpha) * S^T V  +  alpha * P,    P uniform over power nodes.
//
// This is the PageRank-style teleport that (a) makes the chain irreducible
// and (b) anchors reputation mass on peers already proven trustworthy,
// which is what blunts malicious raters in Fig. 4.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gt::core {

using NodeId = std::size_t;

/// Selects the top-k reputation holders as power nodes (k >= 1 whenever
/// fraction > 0 and n > 0; ties break toward the smaller id for
/// determinism).
std::vector<NodeId> select_power_nodes(std::span<const double> scores, double fraction);

/// In-place greedy mixing: v <- (1-alpha)*v + alpha*P with P uniform over
/// `power`. No-op when alpha == 0 or power is empty. `v` should be
/// L1-normalized on entry; the result stays normalized. Throws, with `v`
/// untouched, on an alpha outside [0, 1] or a power id >= v.size().
void apply_power_node_mix(std::vector<double>& v, std::span<const NodeId> power,
                          double alpha);

}  // namespace gt::core
