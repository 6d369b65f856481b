// RAII override of the GT_SIMD kill-switch for tests: sets (or, with
// nullptr, unsets) the variable for one scope and restores the previous
// value on exit, so tests never leak env state into each other.
// VectorGossip reads GT_SIMD at construction and no config carries a
// level, so this is how a test forces a kernel level, directly or through
// GossipTrustEngine.
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
