// Bloom filters for reputation storage.
//
// The paper lists "efficient reputation storage with Bloom filters" among
// GossipTrust's innovations: instead of n explicit <node_id, score> pairs,
// a node keeps a handful of Bloom filters, one per score bucket, and
// membership tests recover a peer's (quantized) score. This header
// provides the filter; score_store.hpp builds the bucketed reputation
// store on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gt::bloom {

/// Classic Bloom filter over 64-bit keys with double hashing
/// (h_i = h1 + i * h2), the Kirsch–Mitzenmacher construction.
class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64. Throws std::invalid_argument
  /// when `hashes` is 0 — a zero-probe filter would contain everything.
  BloomFilter(std::size_t bits, std::size_t hashes);

  /// Sizes a filter for `expected_items` at `target_fpr`, choosing optimal
  /// m = -n ln p / (ln 2)^2 and k = (m/n) ln 2.
  static BloomFilter with_capacity(std::size_t expected_items, double target_fpr);

  void insert(std::uint64_t key);
  bool contains(std::uint64_t key) const;

  std::size_t bit_count() const noexcept { return bits_; }
  std::size_t hash_count() const noexcept { return hashes_; }
  std::size_t storage_bytes() const noexcept { return words_.size() * 8; }

 private:
  std::size_t bits_;
  std::size_t hashes_;
  std::vector<std::uint64_t> words_;

  std::pair<std::uint64_t, std::uint64_t> base_hashes(std::uint64_t key) const;
};

}  // namespace gt::bloom
