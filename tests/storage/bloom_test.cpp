#include "bloom/bloom_filter.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace gt::bloom {
namespace {

TEST(BloomFilter, ZeroHashesRejectedLoudly) {
  // A 0-probe filter reports every key as present; the old ctor silently
  // bumped it to 1, hiding broken derivations upstream.
  EXPECT_THROW(BloomFilter(1024, 0), std::invalid_argument);
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter f(4096, 4);
  for (std::uint64_t k = 0; k < 200; ++k) f.insert(k * 7919);
  for (std::uint64_t k = 0; k < 200; ++k) EXPECT_TRUE(f.contains(k * 7919));
}

TEST(BloomFilter, FalsePositiveRateNearTarget) {
  const std::size_t items = 1000;
  auto f = BloomFilter::with_capacity(items, 0.01);
  for (std::uint64_t k = 0; k < items; ++k) f.insert(k);
  std::size_t fp = 0;
  const std::size_t probes = 20000;
  for (std::uint64_t k = 0; k < probes; ++k) fp += f.contains(1000000 + k);
  const double rate = static_cast<double>(fp) / static_cast<double>(probes);
  EXPECT_LT(rate, 0.03);
}

TEST(BloomFilter, WithCapacityChoosesSaneGeometry) {
  const auto f = BloomFilter::with_capacity(1000, 0.01);
  // Optimal: ~9.6 bits/item, ~7 hashes.
  EXPECT_NEAR(static_cast<double>(f.bit_count()) / 1000.0, 9.6, 1.0);
  EXPECT_NEAR(static_cast<double>(f.hash_count()), 7.0, 1.0);
}

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter f(1024, 3);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(f.contains(k));
}

TEST(BloomFilter, BitsRoundedUpToWord) {
  BloomFilter f(65, 1);
  EXPECT_EQ(f.bit_count(), 128u);
  EXPECT_EQ(f.storage_bytes(), 16u);
  BloomFilter tiny(1, 1);
  EXPECT_EQ(tiny.bit_count(), 64u);
}

}  // namespace
}  // namespace gt::bloom
