#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gt {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) noexcept {
  SplitMix64 sm(x);
  return sm.next();
}

std::uint64_t mix64(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Two SplitMix64 rounds with the stream id folded in between; consecutive
  // stream ids land in unrelated parts of the sequence.
  SplitMix64 outer(seed);
  SplitMix64 inner(outer.next() ^ (stream + 0x9e3779b97f4a7c15ULL));
  return inner.next();
}

void Rng::reseed(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  has_cached_gaussian_ = false;
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  if (bound == 0) {
    // A zero bound is always a caller bug (e.g. sampling a target from an
    // empty candidate set); returning anything would silently index out of
    // bounds downstream, so fail loudly in every build type, not just when
    // asserts are compiled in.
    std::fprintf(stderr, "fatal: Rng::next_below(0) — bound must be positive\n");
    std::abort();
  }
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() noexcept {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  assert(k <= n);
  // Floyd's algorithm keeps memory proportional to k for large n.
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 2 >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    shuffle(all);
    all.resize(k);
    return all;
  }
  std::vector<bool> chosen(n, false);
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = static_cast<std::size_t>(next_below(j + 1));
    if (chosen[t]) t = j;
    chosen[t] = true;
    out.push_back(t);
  }
  return out;
}

}  // namespace gt
