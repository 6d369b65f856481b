#include "simd/simd.hpp"

#include <cstdio>

#include "common/knob.hpp"

namespace gt::simd {

const char* level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAuto:
      return "auto";
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

SimdLevel parse_level(std::string_view token) {
  constexpr SimdLevel kLevels[] = {SimdLevel::kScalar, SimdLevel::kScalar,
                                   SimdLevel::kAuto, SimdLevel::kAvx2,
                                   SimdLevel::kAvx512};
  return kLevels[knob::to_choice("GT_SIMD", token,
                                 {"off", "scalar", "auto", "avx2", "avx512"})];
}

bool level_supported(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kAuto:
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(__x86_64__) || defined(_M_X64)
      // The avx512 table mixes 512-bit streaming kernels with the AVX2
      // predicate kernels, so both feature bits must be present
      // (every shipping AVX-512 part has AVX2, but check, don't assume).
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdLevel detect_level() noexcept {
  if (level_supported(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (level_supported(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

SimdLevel resolve_level(SimdLevel configured) {
  SimdLevel wanted = configured;
  if (const auto env = knob::env("GT_SIMD")) wanted = parse_level(*env);
  if (wanted == SimdLevel::kAuto) return detect_level();
  return level_supported(wanted) ? wanted : SimdLevel::kScalar;
}

void assert_aligned(const void* ptr, std::size_t alignment, const char* what) {
  if ((reinterpret_cast<std::uintptr_t>(ptr) & (alignment - 1)) != 0) {
    std::fprintf(stderr,
                 "gt::simd alignment violation: %s = %p is not %zu-byte "
                 "aligned\n",
                 what, ptr, alignment);
    std::abort();
  }
}

}  // namespace gt::simd
