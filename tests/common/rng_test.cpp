#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace gt {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(RngDeathTest, NextBelowZeroAbortsInAllBuildTypes) {
  // A zero bound means "pick one of nothing" — always a caller bug (it was
  // the root of the single-node gossip out-of-bounds write). It must fail
  // loudly even in Release, not truncate to an arbitrary value.
  EXPECT_DEATH(
      {
        Rng rng(1);
        rng.next_below(0);
      },
      "next_below");
}

TEST(Rng, NextBelowInRange) {
  Rng rng(42);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) acc += rng.next_double();
  EXPECT_NEAR(acc / trials, 0.5, 0.01);
}

TEST(Rng, NextBoolEdgeCases) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolFrequencyMatchesP) {
  Rng rng(13);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GaussianMomentsReasonable) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sq / trials, 1.0, 0.03);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    const auto s = rng.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (const auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullSet) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(SplitMix64, KnownGolden) {
  // Reference values for seed 0 from the public splitmix64 reference code.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(Mix64, DistinctInputsDistinctOutputs) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 1000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

}  // namespace
}  // namespace gt
