// RAII override of the GT_SIMD kill-switch for tests: sets (or, with
// nullptr, unsets) the variable for one scope and restores the previous
// value on exit, so tests never leak env state into each other.
// VectorGossip-backed engines read GT_SIMD at construction, which makes
// this the way to force a kernel level through layers that carry no
// simd_level field of their own (GossipTrustEngine).
#pragma once

#include <cstdlib>
#include <string>

namespace gt::test_support {

class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* old = std::getenv("GT_SIMD");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("GT_SIMD", value, 1);
    } else {
      ::unsetenv("GT_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_old_) {
      ::setenv("GT_SIMD", old_.c_str(), 1);
    } else {
      ::unsetenv("GT_SIMD");
    }
  }
  ScopedSimdEnv(const ScopedSimdEnv&) = delete;
  ScopedSimdEnv& operator=(const ScopedSimdEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

}  // namespace gt::test_support
