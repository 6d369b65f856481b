// Deterministic pseudo-random number generation for all simulations.
//
// Every experiment in this repository derives its randomness from a single
// 64-bit seed so that every figure and table is exactly re-runnable. We use
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is the
// recommended seeding procedure and gives independent streams from
// consecutive seeds.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace gt {

/// SplitMix64: tiny, fast generator used to expand a single seed into the
/// larger state of xoshiro256**. Also usable standalone for hashing.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless 64-bit mix of a value; useful for deriving per-entity seeds.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// Stateless 64-bit mix of (seed, stream): derives the seed of stream i
/// from a base seed, e.g. one independent RNG stream per simulated node.
std::uint64_t mix64(std::uint64_t seed, std::uint64_t stream) noexcept;

/// xoshiro256**: the project-wide PRNG. Satisfies the C++ named requirement
/// UniformRandomBitGenerator so it composes with <random> distributions,
/// though we provide our own bounded/real helpers for speed and portability
/// of results across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform integer in [0, bound). Debiased via Lemire's method.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) noexcept;

  /// Standard normal via Box–Muller (cached second value).
  double next_gaussian() noexcept;

  /// Fisher–Yates shuffle of an index container.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), order unspecified.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace gt
