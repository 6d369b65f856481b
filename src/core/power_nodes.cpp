#include "core/power_nodes.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"

namespace gt::core {

std::vector<NodeId> select_power_nodes(std::span<const double> scores,
                                       double fraction) {
  if (fraction <= 0.0 || scores.empty()) return {};
  const auto n = scores.size();
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(fraction * static_cast<double>(n))));
  return top_k_indices(scores, std::min(k, n));
}

void apply_power_node_mix(std::vector<double>& v, std::span<const NodeId> power,
                          double alpha) {
  if (alpha == 0.0 || power.empty()) return;
  if (alpha < 0.0 || alpha > 1.0)
    throw std::invalid_argument("apply_power_node_mix: alpha must be in [0, 1]");
  for (const NodeId p : power)
    if (p >= v.size()) throw std::out_of_range("apply_power_node_mix: bad power node id");
  const double keep = 1.0 - alpha;
  for (auto& x : v) x *= keep;
  const double share = alpha / static_cast<double>(power.size());
  for (const NodeId p : power) v[p] += share;
}

}  // namespace gt::core
