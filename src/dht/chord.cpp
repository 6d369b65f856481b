#include "dht/chord.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"

namespace gt::dht {

Key hash_key(std::uint64_t value) { return mix64(value ^ 0x517cc1b727220a95ULL); }

ChordRing::ChordRing(std::size_t n, std::uint64_t seed) {
  if (n == 0) throw std::invalid_argument("ChordRing: n must be positive");
  ring_position_.resize(n);
  Rng rng(seed);
  // Draw distinct positions (collisions on a 64-bit ring are ~impossible,
  // but regenerate defensively anyway).
  for (NodeId v = 0; v < n; ++v) ring_position_[v] = rng.next_u64();
  std::sort(ring_position_.begin(), ring_position_.end());
  const bool has_dup =
      std::adjacent_find(ring_position_.begin(), ring_position_.end()) !=
      ring_position_.end();
  if (has_dup) {
    for (NodeId v = 0; v < n; ++v)
      ring_position_[v] = mix64(seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
  } else {
    // Shuffle so NodeId ordering is independent of ring ordering.
    rng.shuffle(ring_position_);
  }

  sorted_order_.resize(n);
  for (NodeId v = 0; v < n; ++v) sorted_order_[v] = v;
  std::sort(sorted_order_.begin(), sorted_order_.end(), [&](NodeId a, NodeId b) {
    return ring_position_[a] < ring_position_[b];
  });
  sorted_positions_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    sorted_positions_[i] = ring_position_[sorted_order_[i]];

  // Finger tables: finger i of node v owns position(v) + 2^i.
  fingers_.assign(n, std::vector<NodeId>(kFingerBits));
  for (NodeId v = 0; v < n; ++v) {
    const Key base = ring_position_[v];
    for (std::size_t i = 0; i < kFingerBits; ++i) {
      const Key target = base + (i < 64 ? (Key{1} << i) : 0);  // wraps mod 2^64
      fingers_[v][i] = successor(target);
    }
  }
}

NodeId ChordRing::successor(Key key) const {
  const auto it =
      std::lower_bound(sorted_positions_.begin(), sorted_positions_.end(), key);
  const std::size_t idx =
      it == sorted_positions_.end() ? 0 : static_cast<std::size_t>(
                                              it - sorted_positions_.begin());
  return sorted_order_[idx];
}

bool ChordRing::in_interval(Key x, Key a, Key b) noexcept {
  // Clockwise half-open interval (a, b] on the ring.
  if (a < b) return x > a && x <= b;
  if (a > b) return x > a || x <= b;
  return true;  // a == b: the interval is the whole ring
}

LookupResult ChordRing::lookup(NodeId start, Key key) const {
  const NodeId owner = successor(key);
  NodeId current = start;
  std::size_t hops = 0;
  const std::size_t hop_cap = 2 * kFingerBits + num_nodes();

  while (current != owner && hops < hop_cap) {
    // Greedy Chord routing: take the farthest finger that does not
    // overshoot the key, i.e. whose position lies in (current, key].
    const Key cur_pos = ring_position_[current];
    NodeId next = current;
    for (std::size_t i = kFingerBits; i-- > 0;) {
      const NodeId cand = fingers_[current][i];
      if (cand == current) continue;
      if (in_interval(ring_position_[cand], cur_pos, key)) {
        next = cand;
        break;
      }
    }
    if (next == current) {
      // No finger strictly progresses: the immediate successor owns the key.
      next = fingers_[current][0];
    }
    current = next;
    ++hops;
  }
  return LookupResult{current, hops};
}

}  // namespace gt::dht
