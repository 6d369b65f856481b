// Kernel implementations: scalar oracle + AVX2 + AVX-512.
//
// This TU is compiled with -ffp-contract=off -fno-tree-vectorize
// -fno-tree-slp-vectorize (see src/simd/CMakeLists.txt): the scalar
// loops below are the bit-identity *reference*, so the compiler must not
// quietly fuse them into FMAs or re-vectorize them behind our back — and
// the vector paths must stay exactly the explicit intrinsics written
// here (mul then add, never fused).
//
// Shared scalar helpers implement every loop body once; the vector
// variants call them for unaligned tails, so a tail element goes through
// literally the same compiled code as the scalar kernel.

#include "simd/kernels.hpp"

#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define GT_SIMD_X86 1
#endif

namespace gt::simd {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Scalar kernels (the oracle). Element semantics live here once; vector
// paths reuse these loops for their tails.
// ---------------------------------------------------------------------------

void scale_assign_scalar(double* dst, const double* src, double scale,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = scale * src[i];
}

/// One element of the received-half fold; returns "payload was nonzero".
inline std::uint64_t accumulate_pair_one(double* dx, double* dw, double x,
                                         double w, double scale) {
  const double px = scale * x;
  const double pw = scale * w;
  *dx += px;
  *dw += pw;
  return (px != 0.0 || pw != 0.0) ? 1u : 0u;
}

std::uint64_t accumulate_pair_count_scalar(double* dx, double* dw,
                                           const double* x, const double* w,
                                           double scale, std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i)
    count += accumulate_pair_one(dx + i, dw + i, x[i], w[i], scale);
  return count;
}

void add_scalar(double* dst, const double* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

/// One element of the VectorGossip bookkeeping sweep; returns "element
/// was stable".
inline bool residual_nan_one(double x, double w, double* prev, double floor,
                             double eps) {
  if (w <= floor) {
    *prev = kNaN;
    return false;
  }
  const double ratio = x / w;
  const bool unstable = std::isnan(*prev) || std::abs(ratio - *prev) > eps;
  *prev = ratio;
  return !unstable;
}

bool residual_nan_scalar(const double* x, const double* w, double* prev,
                         double floor, double eps, std::size_t n) {
  bool stable = true;
  for (std::size_t i = 0; i < n; ++i)
    stable &= residual_nan_one(x[i], w[i], prev + i, floor, eps);
  return stable;
}

inline void ratio_accumulate_one(double* acc, std::uint32_t* cnt, double x,
                                 double w, double floor) {
  if (w > floor) {
    *acc += x / w;
    ++*cnt;
  }
}

void ratio_accumulate_scalar(double* acc, std::uint32_t* cnt, const double* x,
                             const double* w, double floor, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    ratio_accumulate_one(acc + i, cnt + i, x[i], w[i], floor);
}

inline std::uint64_t nonzero_pair_one(double x, double w, double h) {
  return (h * x != 0.0 || h * w != 0.0) ? 1u : 0u;
}

std::uint64_t count_nonzero_pair_scalar(const double* x, const double* w,
                                        double h, std::size_t n) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += nonzero_pair_one(x[i], w[i], h);
  return count;
}

const Kernels kScalarKernels = {
    SimdLevel::kScalar,           scale_assign_scalar,
    accumulate_pair_count_scalar, add_scalar,
    residual_nan_scalar,          ratio_accumulate_scalar,
    count_nonzero_pair_scalar,
};

// ---------------------------------------------------------------------------
// AVX2 kernels: 4 x f64 per register, unrolled x2 on the streaming sweeps.
// All arithmetic uses explicit mul/add intrinsics (no FMA) so results are
// bit-identical to the contraction-free scalar loops above.
// ---------------------------------------------------------------------------
#ifdef GT_SIMD_X86

#define GT_AVX2 __attribute__((target("avx2")))

GT_AVX2 void scale_assign_avx2(double* dst, const double* src, double scale,
                               std::size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(src + i), s));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_mul_pd(_mm256_loadu_pd(src + i + 4), s));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(_mm256_loadu_pd(src + i), s));
  scale_assign_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX2 std::uint64_t accumulate_pair_count_avx2(double* dx, double* dw,
                                                 const double* x,
                                                 const double* w, double scale,
                                                 std::size_t n) {
  const __m256d s = _mm256_set1_pd(scale);
  const __m256d zero = _mm256_setzero_pd();
  // Per-lane payload counters: a true compare lane is all ones (-1), so
  // subtracting the mask counts it without leaving the vector unit.
  __m256i cnt = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d px = _mm256_mul_pd(_mm256_loadu_pd(x + i), s);
    const __m256d pw = _mm256_mul_pd(_mm256_loadu_pd(w + i), s);
    _mm256_storeu_pd(dx + i, _mm256_add_pd(_mm256_loadu_pd(dx + i), px));
    _mm256_storeu_pd(dw + i, _mm256_add_pd(_mm256_loadu_pd(dw + i), pw));
    // NEQ_UQ: NaN != 0.0 -> true, matching the scalar `!=`.
    const __m256d nz = _mm256_or_pd(_mm256_cmp_pd(px, zero, _CMP_NEQ_UQ),
                                    _mm256_cmp_pd(pw, zero, _CMP_NEQ_UQ));
    cnt = _mm256_sub_epi64(cnt, _mm256_castpd_si256(nz));
  }
  alignas(32) std::uint64_t lane[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane), cnt);
  return lane[0] + lane[1] + lane[2] + lane[3] +
         accumulate_pair_count_scalar(dx + i, dw + i, x + i, w + i, scale,
                                      n - i);
}

GT_AVX2 void add_avx2(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
    _mm256_storeu_pd(dst + i + 4, _mm256_add_pd(_mm256_loadu_pd(dst + i + 4),
                                                _mm256_loadu_pd(src + i + 4)));
  }
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i),
                                            _mm256_loadu_pd(src + i)));
  add_scalar(dst + i, src + i, n - i);
}

GT_AVX2 bool residual_nan_avx2(const double* x, const double* w, double* prev,
                               double floor, double eps, std::size_t n) {
  const __m256d floorv = _mm256_set1_pd(floor);
  const __m256d epsv = _mm256_set1_pd(eps);
  const __m256d nanv = _mm256_set1_pd(kNaN);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d unstable_acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d pv = _mm256_loadu_pd(prev + i);
    // defined := !(w <= floor)  (true for NaN w, like the scalar branch)
    const __m256d defined = _mm256_cmp_pd(wv, floorv, _CMP_NLE_UQ);
    const __m256d ratio = _mm256_div_pd(xv, wv);
    // per-lane instability for defined lanes:
    //   isnan(prev) || |ratio - prev| > eps   (GT_OQ: NaN diff -> false)
    const __m256d prev_nan = _mm256_cmp_pd(pv, pv, _CMP_UNORD_Q);
    const __m256d diff = _mm256_and_pd(_mm256_sub_pd(ratio, pv), absmask);
    const __m256d moved = _mm256_cmp_pd(diff, epsv, _CMP_GT_OQ);
    const __m256d unstable_def = _mm256_or_pd(prev_nan, moved);
    const __m256d unstable =
        _mm256_or_pd(_mm256_andnot_pd(defined, ones),
                     _mm256_and_pd(defined, unstable_def));
    unstable_acc = _mm256_or_pd(unstable_acc, unstable);
    _mm256_storeu_pd(prev + i, _mm256_blendv_pd(nanv, ratio, defined));
  }
  bool stable = _mm256_movemask_pd(unstable_acc) == 0;
  for (; i < n; ++i)
    stable &= residual_nan_one(x[i], w[i], prev + i, floor, eps);
  return stable;
}

GT_AVX2 void ratio_accumulate_avx2(double* acc, std::uint32_t* cnt,
                                   const double* x, const double* w,
                                   double floor, std::size_t n) {
  const __m256d floorv = _mm256_set1_pd(floor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wv = _mm256_loadu_pd(w + i);
    const __m256d defined = _mm256_cmp_pd(wv, floorv, _CMP_GT_OQ);
    const int m = _mm256_movemask_pd(defined);
    if (m == 0) continue;
    const __m256d ratio = _mm256_div_pd(_mm256_loadu_pd(x + i), wv);
    const __m256d av = _mm256_loadu_pd(acc + i);
    // Blend the *sum*, not a zeroed addend: adding +0.0 would flip a
    // stored -0.0 accumulator to +0.0 and break bit-identity.
    _mm256_storeu_pd(
        acc + i, _mm256_blendv_pd(av, _mm256_add_pd(av, ratio), defined));
    cnt[i] += m & 1;
    cnt[i + 1] += (m >> 1) & 1;
    cnt[i + 2] += (m >> 2) & 1;
    cnt[i + 3] += (m >> 3) & 1;
  }
  ratio_accumulate_scalar(acc + i, cnt + i, x + i, w + i, floor, n - i);
}

GT_AVX2 std::uint64_t count_nonzero_pair_avx2(const double* x, const double* w,
                                              double h, std::size_t n) {
  const __m256d hv = _mm256_set1_pd(h);
  const __m256d zero = _mm256_setzero_pd();
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // NEQ_UQ: NaN != 0.0 -> true, matching the scalar `!=`.
    const __m256d nzx = _mm256_cmp_pd(
        _mm256_mul_pd(hv, _mm256_loadu_pd(x + i)), zero, _CMP_NEQ_UQ);
    const __m256d nzw = _mm256_cmp_pd(
        _mm256_mul_pd(hv, _mm256_loadu_pd(w + i)), zero, _CMP_NEQ_UQ);
    count += static_cast<unsigned>(
        __builtin_popcount(_mm256_movemask_pd(_mm256_or_pd(nzx, nzw))));
  }
  return count + count_nonzero_pair_scalar(x + i, w + i, h, n - i);
}

const Kernels kAvx2Kernels = {
    SimdLevel::kAvx2,           scale_assign_avx2,
    accumulate_pair_count_avx2, add_avx2,
    residual_nan_avx2,          ratio_accumulate_avx2,
    count_nonzero_pair_avx2,
};

// ---------------------------------------------------------------------------
// AVX-512 kernels: 8 x f64 per register on the three streaming mul/add
// sweeps — the store-bound hot loops where 512-bit width is pure win (the
// fold's payload count rides along as two mask compares per register). The
// predicate and ratio kernels reuse the AVX2 forms above: they are
// elementwise, so mixing widths inside one dispatch table cannot change a
// single bit, and their divide / movemask structure gains nothing from
// wider registers.
// ---------------------------------------------------------------------------

#define GT_AVX512 __attribute__((target("avx512f")))

GT_AVX512 void scale_assign_avx512(double* dst, const double* src,
                                   double scale, std::size_t n) {
  const __m512d s = _mm512_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(dst + i, _mm512_mul_pd(_mm512_loadu_pd(src + i), s));
    _mm512_storeu_pd(dst + i + 8,
                     _mm512_mul_pd(_mm512_loadu_pd(src + i + 8), s));
  }
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dst + i, _mm512_mul_pd(_mm512_loadu_pd(src + i), s));
  scale_assign_scalar(dst + i, src + i, scale, n - i);
}

GT_AVX512 std::uint64_t accumulate_pair_count_avx512(double* dx, double* dw,
                                                     const double* x,
                                                     const double* w,
                                                     double scale,
                                                     std::size_t n) {
  const __m512d s = _mm512_set1_pd(scale);
  const __m512d zero = _mm512_setzero_pd();
  const __m512i one = _mm512_set1_epi64(1);
  __m512i cnt = _mm512_setzero_si512();  // per-lane payload counters
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Explicit mul then add — _mm512_fmadd_pd would fuse and break
    // bit-identity with the contraction-free scalar oracle.
    const __m512d px = _mm512_mul_pd(_mm512_loadu_pd(x + i), s);
    const __m512d pw = _mm512_mul_pd(_mm512_loadu_pd(w + i), s);
    _mm512_storeu_pd(dx + i, _mm512_add_pd(_mm512_loadu_pd(dx + i), px));
    _mm512_storeu_pd(dw + i, _mm512_add_pd(_mm512_loadu_pd(dw + i), pw));
    const __mmask8 nz = static_cast<__mmask8>(
        _mm512_cmp_pd_mask(px, zero, _CMP_NEQ_UQ) |
        _mm512_cmp_pd_mask(pw, zero, _CMP_NEQ_UQ));
    cnt = _mm512_mask_add_epi64(cnt, nz, cnt, one);
  }
  alignas(64) std::uint64_t lane[8];
  _mm512_store_si512(lane, cnt);
  std::uint64_t count = 0;
  for (const std::uint64_t c : lane) count += c;
  return count + accumulate_pair_count_scalar(dx + i, dw + i, x + i, w + i,
                                              scale, n - i);
}

GT_AVX512 void add_avx512(double* dst, const double* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
    _mm512_storeu_pd(dst + i + 8,
                     _mm512_add_pd(_mm512_loadu_pd(dst + i + 8),
                                   _mm512_loadu_pd(src + i + 8)));
  }
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(dst + i, _mm512_add_pd(_mm512_loadu_pd(dst + i),
                                            _mm512_loadu_pd(src + i)));
  add_scalar(dst + i, src + i, n - i);
}

const Kernels kAvx512Kernels = {
    SimdLevel::kAvx512,           scale_assign_avx512,
    accumulate_pair_count_avx512, add_avx512,
    residual_nan_avx2,            ratio_accumulate_avx2,
    count_nonzero_pair_avx2,
};

#endif  // GT_SIMD_X86

}  // namespace

const Kernels& kernels(SimdLevel level) {
  if (level == SimdLevel::kAuto) level = resolve_level(SimdLevel::kAuto);
  switch (level) {
#ifdef GT_SIMD_X86
    case SimdLevel::kAvx2:
      if (level_supported(SimdLevel::kAvx2)) return kAvx2Kernels;
      break;
    case SimdLevel::kAvx512:
      if (level_supported(SimdLevel::kAvx512)) return kAvx512Kernels;
      break;
#endif
    default:
      break;
  }
  return kScalarKernels;
}

}  // namespace gt::simd
