// SIMD layer unit tests: runtime dispatch under GT_SIMD, bitwise
// scalar-vs-vector kernel sweeps over edge sizes (short tails, unaligned
// heads, NaN/inf/denormal payloads), and the aligned allocator contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "simd/kernels.hpp"
#include "simd/simd.hpp"
#include "support/scoped_simd_env.hpp"

namespace gt::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFloor = 1e-300;

using test_support::ScopedSimdEnv;

/// The levels actually executable on this machine (always includes
/// scalar; avx2/avx512 only where supported, so the suite is green on
/// any host).
std::vector<SimdLevel> supported_vector_levels() {
  std::vector<SimdLevel> levels;
  if (level_supported(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (level_supported(SimdLevel::kAvx512))
    levels.push_back(SimdLevel::kAvx512);
  return levels;
}

/// Deterministic ugly test data: mixes signs, magnitudes, exact zeros,
/// -0.0, denormals, infinities and NaNs — everything the gossip state can
/// legally hold.
std::vector<double> ugly_data(std::size_t n, std::uint64_t seed) {
  std::vector<double> v(n);
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    switch (s % 11) {
      case 0: v[i] = 0.0; break;
      case 1: v[i] = -0.0; break;
      case 2: v[i] = 5e-324; break;  // smallest denormal
      case 3: v[i] = -1e-310; break;
      case 4: v[i] = kInf; break;
      case 5: v[i] = -kInf; break;
      case 6: v[i] = kNaN; break;
      default:
        v[i] = (static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5) * 8.0;
        break;
    }
  }
  return v;
}

/// Realistic weights: mostly positive, some exactly 0 (undefined), a few
/// NaN (the residual kernels' branch semantics differ on them on purpose).
std::vector<double> weight_data(std::size_t n, std::uint64_t seed) {
  auto v = ugly_data(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(v[i]) || i % 7 == 3) continue;  // keep some NaN / specials
    v[i] = std::abs(v[i]);
    if (i % 5 == 0) v[i] = 0.0;
  }
  return v;
}

const std::size_t kEdgeSizes[] = {0, 1, 2, 3,  4,  5,  7,  8,  9, 15,
                                  16, 17, 31, 32, 33, 63, 64, 65, 100};

#define EXPECT_BITEQ_VEC(a, b)                                            \
  do {                                                                    \
    ASSERT_EQ((a).size(), (b).size());                                    \
    if (!(a).empty()) {                                                   \
      EXPECT_EQ(                                                          \
          std::memcmp((a).data(), (b).data(), (a).size() * sizeof(double)), 0); \
    }                                                                     \
  } while (0)

// --- runtime dispatch ------------------------------------------------------

TEST(SimdDispatch, LevelNamesAreStable) {
  EXPECT_STREQ(level_name(SimdLevel::kAuto), "auto");
  EXPECT_STREQ(level_name(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(level_name(SimdLevel::kAvx512), "avx512");
}

TEST(SimdDispatch, ParseAcceptsTheClosedSet) {
  EXPECT_EQ(parse_level("off"), SimdLevel::kScalar);
  EXPECT_EQ(parse_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_level("auto"), SimdLevel::kAuto);
  EXPECT_EQ(parse_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_level("avx512"), SimdLevel::kAvx512);
  EXPECT_THROW(parse_level("neon"), std::invalid_argument);
  EXPECT_THROW(parse_level(""), std::invalid_argument);
  EXPECT_THROW(parse_level("sse2"), std::invalid_argument);
  EXPECT_THROW(parse_level("ON"), std::invalid_argument);
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndAutoResolvesConcrete) {
  EXPECT_TRUE(level_supported(SimdLevel::kScalar));
  const SimdLevel best = detect_level();
  EXPECT_NE(best, SimdLevel::kAuto);
  EXPECT_TRUE(level_supported(best));
}

TEST(SimdDispatch, EnvOffForcesScalarOverConfig) {
  ScopedSimdEnv env("off");
  EXPECT_EQ(resolve_level(SimdLevel::kAuto), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kAvx2), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kAvx512), SimdLevel::kScalar);
}

TEST(SimdDispatch, EnvAutoResolvesToDetectedLevel) {
  ScopedSimdEnv env("auto");
  EXPECT_EQ(resolve_level(SimdLevel::kScalar), detect_level());
}

TEST(SimdDispatch, EnvForcedLevelDegradesToScalarWhenUnsupported) {
  {
    ScopedSimdEnv env("avx2");
    const SimdLevel got = resolve_level(SimdLevel::kAuto);
    EXPECT_EQ(got, level_supported(SimdLevel::kAvx2) ? SimdLevel::kAvx2
                                                     : SimdLevel::kScalar);
  }
  {
    ScopedSimdEnv env("avx512");
    const SimdLevel got = resolve_level(SimdLevel::kAuto);
    EXPECT_EQ(got, level_supported(SimdLevel::kAvx512) ? SimdLevel::kAvx512
                                                       : SimdLevel::kScalar);
  }
}

TEST(SimdDispatch, EnvGarbageThrowsLoudly) {
  // "neon" is garbage too: there is no NEON table until an aarch64 runner
  // exists to test one.
  for (const char* bad : {"fastest-please", "neon"}) {
    ScopedSimdEnv env(bad);
    EXPECT_THROW(resolve_level(SimdLevel::kAuto), std::invalid_argument)
        << bad;
  }
}

TEST(SimdDispatch, NoEnvUsesConfiguredLevel) {
  ScopedSimdEnv env(nullptr);
  EXPECT_EQ(resolve_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(resolve_level(SimdLevel::kAuto), detect_level());
}

TEST(SimdDispatch, KernelsTableMatchesRequestedLevel) {
  ScopedSimdEnv env(nullptr);
  EXPECT_EQ(kernels(SimdLevel::kScalar).level, SimdLevel::kScalar);
  for (const SimdLevel l : supported_vector_levels())
    EXPECT_EQ(kernels(l).level, l);
  // kAuto resolves; an unsupported concrete level degrades to scalar.
  EXPECT_EQ(kernels(SimdLevel::kAuto).level, detect_level());
  if (!level_supported(SimdLevel::kAvx2)) {
    EXPECT_EQ(kernels(SimdLevel::kAvx2).level, SimdLevel::kScalar);
  }
  if (!level_supported(SimdLevel::kAvx512)) {
    EXPECT_EQ(kernels(SimdLevel::kAvx512).level, SimdLevel::kScalar);
  }
}

// --- aligned allocator -----------------------------------------------------

TEST(SimdAlloc, VectorsAre64ByteAligned) {
  for (std::size_t n : {1, 3, 7, 100, 4096}) {
    aligned_vector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kAlignment, 0u);
    aligned_vector<std::uint32_t> u(n, 1u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u.data()) % kAlignment, 0u);
  }
}

TEST(SimdAlloc, PaddedSizeRoundsUpToKernelGranularity) {
  EXPECT_EQ(padded_size(0), 0u);
  EXPECT_EQ(padded_size(1), kPadSlots);
  EXPECT_EQ(padded_size(kPadSlots), kPadSlots);
  EXPECT_EQ(padded_size(kPadSlots + 1), 2 * kPadSlots);
  EXPECT_EQ(padded_size(1000), 1000u);  // already a multiple of 8
  EXPECT_EQ(padded_size(1001), 1008u);
}

// --- bitwise scalar-vs-vector sweeps --------------------------------------

class SimdKernelSweep : public ::testing::TestWithParam<SimdLevel> {};

TEST_P(SimdKernelSweep, ElementwiseKernelsBitIdentical) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    auto x1 = ugly_data(n, 2 * n + 1);
    auto x2 = x1;
    scalar.scale_assign(x1.data(), x1.data(), 0.5, n);  // in-place halve
    vec.scale_assign(x2.data(), x2.data(), 0.5, n);
    EXPECT_BITEQ_VEC(x1, x2);

    std::vector<double> d1(n, -0.0), d2(n, -0.0);
    scalar.scale_assign(d1.data(), x1.data(), 0.5, n);
    vec.scale_assign(d2.data(), x2.data(), 0.5, n);
    EXPECT_BITEQ_VEC(d1, d2);

    // In-place aliasing is part of the kernel contract.
    scalar.scale_assign(d1.data(), d1.data(), 2.0, n);
    vec.scale_assign(d2.data(), d2.data(), 2.0, n);
    EXPECT_BITEQ_VEC(d1, d2);

    auto s1 = ugly_data(n, 5 * n + 3);
    std::vector<double> e1(n, 0.25), e2(n, 0.25);
    const std::uint64_t c1 = scalar.accumulate_pair_count(
        d1.data(), e1.data(), s1.data(), x1.data(), 0.5, n);
    const std::uint64_t c2 = vec.accumulate_pair_count(
        d2.data(), e2.data(), s1.data(), x2.data(), 0.5, n);
    EXPECT_BITEQ_VEC(d1, d2);
    EXPECT_BITEQ_VEC(e1, e2);
    EXPECT_EQ(c1, c2) << "accumulate_pair_count n=" << n;

    scalar.add(d1.data(), x1.data(), n);
    vec.add(d2.data(), x2.data(), n);
    EXPECT_BITEQ_VEC(d1, d2);
  }
}

TEST_P(SimdKernelSweep, ResidualKernelsBitIdenticalIncludingNaNBranches) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    const auto x = ugly_data(n, 3 * n + 7);
    const auto w = weight_data(n, 4 * n + 9);
    auto p1 = ugly_data(n, 6 * n + 11);
    auto p2 = p1;
    const bool r1 = scalar.residual_nan(x.data(), w.data(), p1.data(), kFloor,
                                        1e-4, n);
    const bool r2 =
        vec.residual_nan(x.data(), w.data(), p2.data(), kFloor, 1e-4, n);
    EXPECT_EQ(r1, r2) << "residual_nan n=" << n;
    EXPECT_BITEQ_VEC(p1, p2);
  }
}

TEST_P(SimdKernelSweep, RatioAccumulateAndPayloadCountBitIdentical) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  for (const std::size_t n : kEdgeSizes) {
    const auto x = ugly_data(n, 9 * n + 1);
    const auto w = weight_data(n, 10 * n + 5);
    // Start accumulators at -0.0: a kernel that blends a zero *addend*
    // instead of the sum would flip the sign bit here.
    std::vector<double> a1(n, -0.0), a2(n, -0.0);
    std::vector<std::uint32_t> c1(n, 7), c2(n, 7);
    scalar.ratio_accumulate(a1.data(), c1.data(), x.data(), w.data(), kFloor, n);
    vec.ratio_accumulate(a2.data(), c2.data(), x.data(), w.data(), kFloor, n);
    EXPECT_BITEQ_VEC(a1, a2);
    EXPECT_EQ(c1, c2);

    for (const double h : {0.5, 1.0}) {
      EXPECT_EQ(scalar.count_nonzero_pair(x.data(), w.data(), h, n),
                vec.count_nonzero_pair(x.data(), w.data(), h, n))
          << "h=" << h << " n=" << n;
    }
  }
}

/// The fold accumulate_pair_count replaced, written out: dst[i] +=
/// scale*src[i] as mul then add (the volatile keeps the compiler from
/// fusing them on FMA targets).
void accumulate_scaled_reference(double* dst, const double* src, double scale,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const volatile double p = scale * src[i];
    dst[i] += p;
  }
}

TEST_P(SimdKernelSweep, AccumulatePairCountMatchesScalarAndOldComposition) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  // Specials on both shares, paired with zeros so each one alone decides
  // the count: -0.0 halves to -0.0 (not counted), NaN and +-inf count,
  // and the smallest subnormal halves to 0 (round to even) — not counted.
  const double specials[] = {-0.0, kNaN, kInf, -kInf, 5e-324, 0.0, 1.0};
  for (const std::size_t n : kEdgeSizes) {
    auto x = ugly_data(n, 13 * n + 2);
    auto w = weight_data(n, 14 * n + 6);
    for (std::size_t i = 0; i < n && i < 2 * std::size(specials); ++i) {
      const double sp = specials[i % std::size(specials)];
      if (i < std::size(specials)) {
        x[i] = sp;
        w[i] = 0.0;
      } else {
        x[i] = -0.0;
        w[i] = sp;
      }
    }
    auto dx1 = ugly_data(n, 15 * n + 4);
    auto dw1 = weight_data(n, 16 * n + 8);
    auto dx2 = dx1, dw2 = dw1, dx0 = dx1, dw0 = dw1;

    const std::uint64_t c1 = scalar.accumulate_pair_count(
        dx1.data(), dw1.data(), x.data(), w.data(), 0.5, n);
    const std::uint64_t c2 = vec.accumulate_pair_count(
        dx2.data(), dw2.data(), x.data(), w.data(), 0.5, n);
    EXPECT_BITEQ_VEC(dx1, dx2);
    EXPECT_BITEQ_VEC(dw1, dw2);
    EXPECT_EQ(c1, c2) << "n=" << n;

    // Same bits and count as the two-pass fold + payload count it replaced.
    accumulate_scaled_reference(dx0.data(), x.data(), 0.5, n);
    accumulate_scaled_reference(dw0.data(), w.data(), 0.5, n);
    EXPECT_BITEQ_VEC(dx0, dx1);
    EXPECT_BITEQ_VEC(dw0, dw1);
    EXPECT_EQ(c1, scalar.count_nonzero_pair(x.data(), w.data(), 0.5, n))
        << "n=" << n;
    EXPECT_EQ(c2, vec.count_nonzero_pair(x.data(), w.data(), 0.5, n))
        << "n=" << n;
  }
}

TEST_P(SimdKernelSweep, AccumulatePairCountSpecialsCountAsDocumented) {
  const Kernels& vec = kernels(GetParam());
  // Eight lanes fill one AVX-512 register (two AVX2 registers), so the
  // vector body, not the scalar tail, decides every count here.
  const double x[8] = {-0.0, kNaN, kInf, -kInf, 5e-324, 0.0, 0.0, 0.0};
  const double w[8] = {0.0, 0.0, 0.0, 0.0, 0.0, -0.0, 5e-324, 2e-323};
  double dx[8] = {}, dw[8] = {};
  // Counted: NaN, +inf, -inf and 0.5 * 2e-323 = 1e-323 (still nonzero).
  EXPECT_EQ(vec.accumulate_pair_count(dx, dw, x, w, 0.5, 8), 4u);
  EXPECT_EQ(dx[4], 0.0);  // the halved smallest subnormal rounds to 0
  EXPECT_EQ(dw[6], 0.0);
  EXPECT_TRUE(std::isnan(dx[1]));
  EXPECT_EQ(dx[2], kInf);
}

TEST_P(SimdKernelSweep, UnalignedHeadsMatchScalar) {
  const Kernels& scalar = kernels(SimdLevel::kScalar);
  const Kernels& vec = kernels(GetParam());
  aligned_vector<double> buf1(64), buf2(64);
  for (std::size_t i = 0; i < buf1.size(); ++i) buf1[i] = buf2[i] = 0.25 * i;
  // Offset 1..7 doubles from the 64-byte line: kernels must not assume
  // alignment of their operands.
  for (std::size_t off = 1; off < 8; ++off) {
    const std::size_t n = buf1.size() - off;
    scalar.scale_assign(buf1.data() + off, buf1.data() + off, 0.5, n);
    vec.scale_assign(buf2.data() + off, buf2.data() + off, 0.5, n);
    ASSERT_EQ(std::memcmp(buf1.data(), buf2.data(),
                          buf1.size() * sizeof(double)), 0)
        << "offset " << off;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSupportedLevels, SimdKernelSweep,
    ::testing::ValuesIn([] {
      auto levels = supported_vector_levels();
      // Degenerate but valid on scalar-only hosts: scalar vs scalar.
      if (levels.empty()) levels.push_back(SimdLevel::kScalar);
      return levels;
    }()),
    [](const ::testing::TestParamInfo<SimdLevel>& param) {
      return std::string(level_name(param.param));
    });

}  // namespace
}  // namespace gt::simd
