// Portable fixed-width SIMD plumbing: level selection, runtime CPU
// dispatch, and 64-byte-aligned storage for VectorGossip's dense state.
//
// Levels form a tiny closed set — scalar (always available, the
// bit-identity oracle), AVX2 and AVX-512 (x86-64) — selected once per
// VectorGossip construction by resolve_level(). VectorGossip is the only
// engine that dispatches: the other push-sum engines are plain loops.
//
//   1. The GT_SIMD environment variable, when set, is the only selector
//      (values: off | scalar | auto | avx2 | avx512; anything else
//      throws). It is the operational kill-switch the CI scalar-fallback
//      leg uses and the way tests force a level.
//   2. Otherwise the level passed to resolve_level() applies (VectorGossip
//      passes kAuto).
//   3. kAuto resolves to the best level this CPU supports; a concrete
//      level the CPU does *not* support degrades to kScalar rather than
//      faulting on an illegal instruction.
//
// Every kernel behind this dispatch is elementwise (see kernels.hpp), so
// the resolved level never changes results — only speed. That is
// asserted, not assumed: the BitIdentityGate goldens and the
// scalar-vs-SIMD EXPECT_EQ sweeps run the same inputs at every supported
// level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>
#include <vector>

namespace gt::simd {

/// Kernel instruction-set level. kAuto is a request, never a resolved
/// level; detect_level() prefers the widest level the CPU supports.
enum class SimdLevel : std::uint8_t {
  kAuto = 0,    ///< resolve to the best supported level at runtime
  kScalar = 1,  ///< portable scalar loops — the bit-identity oracle
  kAvx2 = 2,    ///< 4 x f64 AVX2 lanes (x86-64)
  kAvx512 = 4,  ///< 8 x f64 AVX-512 lanes for the streaming mul/add
                ///< kernels; the predicate kernels reuse the AVX2 forms
                ///< (elementwise, so still bit-exact)
};

/// Stable lowercase name ("auto", "scalar", "avx2", "avx512") for
/// telemetry and bench records.
const char* level_name(SimdLevel level) noexcept;

/// Parses a GT_SIMD token: off (= scalar) | scalar | auto | avx2 | avx512.
/// Anything else throws knob::Error (a std::invalid_argument): a typo in
/// the kill-switch must be loud, not a silent fallback to the fast path.
SimdLevel parse_level(std::string_view token);

/// True when this CPU can execute kernels of `level` (kScalar always;
/// kAuto is always satisfiable).
bool level_supported(SimdLevel level) noexcept;

/// Best supported concrete level on this CPU.
SimdLevel detect_level() noexcept;

/// Resolution used by VectorGossip at construction: GT_SIMD env override
/// first, then `configured`, kAuto -> detect_level(), unsupported concrete
/// levels degrade to kScalar. Always returns a concrete supported level.
SimdLevel resolve_level(SimdLevel configured);

/// Alignment of the dense state arrays: one cache line, a multiple of
/// every vector width in play.
inline constexpr std::size_t kAlignment = 64;

/// Tail padding granularity in doubles: arrays are sized to a multiple of
/// 8 slots (one full AVX-512 register, two AVX2 registers) so a vector
/// kernel never reads past the allocation. Padding slots hold benign
/// values and are excluded from all logical loops.
inline constexpr std::size_t kPadSlots = 8;

/// Smallest multiple of kPadSlots >= n.
constexpr std::size_t padded_size(std::size_t n) noexcept {
  return (n + kPadSlots - 1) / kPadSlots * kPadSlots;
}

/// Aborts with a message when `ptr` is not `alignment`-aligned. The dense
/// arrays assert this at construction: a quiet misalignment would only
/// show up as a crash deep inside an aligned load.
void assert_aligned(const void* ptr, std::size_t alignment, const char* what);

/// Minimal C++17 aligned allocator: std::vector<double, AlignedAllocator>
/// data() is always 64-byte aligned. Uses the aligned operator new, so it
/// composes with allocation-counting test harnesses that replace it.
template <typename T, std::size_t Align = kAlignment>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                "Align must be a power of two covering alignof(T)");
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Align}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Align});
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// 64-byte-aligned vector for the dense state arrays.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace gt::simd
