// Chord-like DHT substrate.
//
// The paper's related work (EigenTrust, PowerTrust, PeerTrust) relies on a
// DHT for reputation storage/routing, and section 7 argues GossipTrust
// "can perform even better in a structured P2P system". This module gives
// both uses a substrate: a consistent-hash ring with finger tables and
// iterative greedy lookup, with hop counting so baselines can report
// routing cost. It is a simulation-grade Chord: no stabilization protocol
// churn races, but correct successor/finger geometry and O(log n) lookups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace gt::dht {

using NodeId = std::size_t;   ///< dense simulation id (0..n-1)
using Key = std::uint64_t;    ///< position on the 2^64 identifier ring

/// Hashes an application-level integer id onto the ring.
Key hash_key(std::uint64_t value);

/// One lookup's outcome.
struct LookupResult {
  NodeId owner;       ///< node responsible for the key (successor)
  std::size_t hops;   ///< routing hops taken from the start node
};

/// Consistent-hash ring with per-node finger tables.
class ChordRing {
 public:
  /// Places n nodes on the ring at hashed positions (deterministic given
  /// the seed) and builds finger tables.
  ChordRing(std::size_t n, std::uint64_t seed);

  std::size_t num_nodes() const noexcept { return ring_position_.size(); }

  /// Ring position of a node.
  Key position(NodeId node) const { return ring_position_[node]; }

  /// Node responsible for `key`: the first node clockwise from the key
  /// (successor semantics). O(log n) binary search — used as ground truth.
  NodeId successor(Key key) const;

  /// Iterative greedy finger routing from `start` toward the owner of
  /// `key`, counting hops. Matches successor() on the owner.
  LookupResult lookup(NodeId start, Key key) const;

  static constexpr std::size_t kFingerBits = 64;

 private:
  std::vector<Key> ring_position_;            // by NodeId
  std::vector<std::size_t> sorted_order_;     // node ids sorted by position
  std::vector<Key> sorted_positions_;         // positions in sorted order
  std::vector<std::vector<NodeId>> fingers_;  // [node][bit]

  /// True when `x` lies in the half-open clockwise interval (a, b].
  static bool in_interval(Key x, Key a, Key b) noexcept;
};

}  // namespace gt::dht
