// Error handling primitives for the voiceprint library.
//
// The library signals contract violations and unrecoverable failures with
// exceptions derived from vp::Error. Hot simulation paths use VP_ASSERT,
// which is compiled out in release builds; API boundaries use VP_REQUIRE,
// which is always active.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace vp {

// Base class of all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// A caller violated a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

// An input value is structurally valid but semantically out of range.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

// Internal invariant broken; indicates a bug in the library itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what) : Error(what) {}
};

// Reports a failure a caller can recover from, for functions that return
// bool with a one-line reason: stores `reason` in *error (if non-null)
// and returns false, so a check reads `return fail(error, "...")`.
inline bool fail(std::string* error, std::string reason) {
  if (error != nullptr) *error = std::move(reason);
  return false;
}

namespace detail {
[[noreturn]] inline void throw_precondition(const char* cond, const char* file,
                                            int line) {
  throw PreconditionError(std::string("precondition failed: ") + cond + " at " +
                          file + ":" + std::to_string(line));
}
[[noreturn]] inline void throw_internal(const char* cond, const char* file,
                                        int line) {
  throw InternalError(std::string("invariant broken: ") + cond + " at " + file +
                      ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace vp

// Always-on precondition check for public API boundaries.
#define VP_REQUIRE(cond)                                           \
  do {                                                             \
    if (!(cond)) ::vp::detail::throw_precondition(#cond, __FILE__, __LINE__); \
  } while (false)

// Always-on internal invariant check.
#define VP_ENSURE(cond)                                        \
  do {                                                         \
    if (!(cond)) ::vp::detail::throw_internal(#cond, __FILE__, __LINE__); \
  } while (false)

// Debug-only check for hot paths.
#ifdef NDEBUG
#define VP_ASSERT(cond) ((void)0)
#else
#define VP_ASSERT(cond) VP_ENSURE(cond)
#endif
