#include "bloom/bloom_filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace gt::bloom {

namespace {
constexpr std::uint64_t kSeed1 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSeed2 = 0xc2b2ae3d27d4eb4fULL;
}  // namespace

BloomFilter::BloomFilter(std::size_t bits, std::size_t hashes)
    : bits_((std::max<std::size_t>(bits, 64) + 63) / 64 * 64),
      hashes_(hashes),
      words_(bits_ / 64, 0) {
  if (hashes == 0)
    throw std::invalid_argument(
        "BloomFilter: hashes must be >= 1 — a zero-probe filter reports "
        "every key as present");
}

BloomFilter BloomFilter::with_capacity(std::size_t expected_items, double target_fpr) {
  if (expected_items == 0) expected_items = 1;
  target_fpr = std::clamp(target_fpr, 1e-9, 0.5);
  const double ln2 = std::log(2.0);
  const double m = -static_cast<double>(expected_items) * std::log(target_fpr) /
                   (ln2 * ln2);
  const double k = m / static_cast<double>(expected_items) * ln2;
  return BloomFilter(static_cast<std::size_t>(std::ceil(m)),
                     std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(k))));
}

std::pair<std::uint64_t, std::uint64_t> BloomFilter::base_hashes(
    std::uint64_t key) const {
  const std::uint64_t h1 = mix64(key ^ kSeed1);
  std::uint64_t h2 = mix64(key ^ kSeed2);
  h2 |= 1;  // force odd so the double-hash stride cycles all positions
  return {h1, h2};
}

void BloomFilter::insert(std::uint64_t key) {
  const auto [h1, h2] = base_hashes(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    words_[pos / 64] |= (std::uint64_t{1} << (pos % 64));
  }
}

bool BloomFilter::contains(std::uint64_t key) const {
  const auto [h1, h2] = base_hashes(key);
  for (std::size_t i = 0; i < hashes_; ++i) {
    const std::uint64_t pos = (h1 + i * h2) % bits_;
    if (!(words_[pos / 64] & (std::uint64_t{1} << (pos % 64)))) return false;
  }
  return true;
}

}  // namespace gt::bloom
