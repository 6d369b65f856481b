// Vectorized kernels for VectorGossip's dense hot loops, dispatched by
// SimdLevel.
//
// Determinism contract: every kernel is *elementwise* — each output
// element is a pure function of the same-index input elements, computed
// with the exact IEEE-754 operations of the scalar loop (no FMA
// contraction, no reassociation), so lane width cannot change a single
// bit. Count and all-stable results are order-free integer/boolean
// folds of per-element outcomes.
//
// In consequence scalar, AVX2 and AVX-512 results are bit-identical — the
// BitIdentityGate goldens recorded on the scalar path stay valid at every
// level, and scalar remains the always-on oracle. The kernels.cpp TU is
// compiled with -ffp-contract=off -fno-tree-vectorize so the scalar
// reference really is sequential scalar code even at -O3.
//
// NaN semantics are part of the contract: the residual kernel replicates
// the exact branch predicates of the loop it replaces, because an
// undefined weight or a first-step NaN prev-ratio is a *normal* state in
// push-sum, not an error.
//
// Pointer rules: all pointers may be unaligned (kernels use unaligned
// loads; the dense arrays are 64-byte aligned anyway for the fast path)
// and `dst == src` aliasing is allowed for the elementwise kernels;
// partially overlapping ranges are not (accumulate_pair_count's dx and dw
// must not overlap each other).
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/simd.hpp"

namespace gt::simd {

/// One resolved kernel set. Obtained once per engine via kernels(); the
/// function pointers are immutable after process start.
struct Kernels {
  SimdLevel level;

  /// dst[i] = scale * src[i] — the keep-half assignment (also used with
  /// dst == src as an in-place scale).
  void (*scale_assign)(double* dst, const double* src, double scale,
                       std::size_t n);

  /// The received-half fold with its payload count, in one pass. For each
  /// i: px = scale*x[i], pw = scale*w[i]; dx[i] += px, dw[i] += pw
  /// (mul then add, never fused). Returns the number of i with
  /// px != 0.0 || pw != 0.0 — count_nonzero_pair(x, w, scale, n) of the
  /// same inputs (NaN compares unequal to zero and counts).
  std::uint64_t (*accumulate_pair_count)(double* dx, double* dw,
                                         const double* x, const double* w,
                                         double scale, std::size_t n);

  /// dst[i] += src[i] — the consensus-means chunk-accumulator merge.
  void (*add)(double* dst, const double* src, std::size_t n);

  /// VectorGossip bookkeeping sweep. For each i:
  ///   if (w[i] <= floor)  prev[i] = NaN, row unstable;
  ///   else ratio = x[i]/w[i]; unstable when isnan(prev[i]) or
  ///        |ratio - prev[i]| > eps; prev[i] = ratio.
  /// Returns true when every element was stable. (NaN w counts as
  /// defined — !(NaN <= floor) — exactly like the scalar branch.)
  bool (*residual_nan)(const double* x, const double* w, double* prev,
                       double floor, double eps, std::size_t n);

  /// consensus_means read-out: for each i with w[i] > floor,
  /// acc[i] += x[i]/w[i] and ++cnt[i]; undefined slots untouched.
  void (*ratio_accumulate)(double* acc, std::uint32_t* cnt, const double* x,
                           const double* w, double floor, std::size_t n);

  /// Payload accounting for a share that is never folded (a lost push):
  /// number of i with h*x[i] != 0.0 || h*w[i] != 0.0 (NaN compares
  /// unequal to zero, matching the scalar `!=`).
  std::uint64_t (*count_nonzero_pair)(const double* x, const double* w,
                                      double h, std::size_t n);
};

/// Kernel set for a level. kAuto resolves via resolve_level(); a concrete
/// unsupported level degrades to the scalar set (mirroring
/// resolve_level), so the returned set is always executable on this CPU.
const Kernels& kernels(SimdLevel level);

}  // namespace gt::simd
