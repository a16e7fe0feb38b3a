// Invariant checking for the simulator.
//
// Simulation correctness bugs silently corrupt measured latencies, so the
// model checks its invariants in every build type. `PSLLC_ASSERT` is for
// internal invariants (model bugs); configuration errors raised on behalf of
// the user throw `psllc::ConfigError` instead (see check.h usage pattern).
// `PSLLC_AUDIT` is the third tier: hot-path contracts too expensive for
// release builds (per-request partition containment, per-slot schedule
// bounds). Audits compile to nothing unless the build defines
// PSLLC_AUDIT_ENABLED (the `audit` preset / -DPSLLC_AUDIT=ON), where they
// behave exactly like PSLLC_ASSERT.
#ifndef PSLLC_COMMON_ASSERT_H_
#define PSLLC_COMMON_ASSERT_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace psllc {

/// Thrown when a user-supplied configuration is invalid.
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown by PSLLC_ASSERT on internal invariant violation. Tests for failure
/// injection catch this type.
class AssertionError : public std::logic_error {
 public:
  explicit AssertionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void assertion_failed(const char* expr, const char* file, int line,
                                   const std::string& message);
}  // namespace detail

/// True when this build evaluates PSLLC_AUDIT checks (the `audit` preset).
[[nodiscard]] constexpr bool audit_enabled() {
#ifdef PSLLC_AUDIT_ENABLED
  return true;
#else
  return false;
#endif
}

}  // namespace psllc

// Runs the statements given as arguments (which must not return) out of
// line: in a lambda marked cold, noinline and noreturn, so the compiler
// places them in the cold text section and the caller keeps only a call.
// The lambda captures by reference, which C++20 allows for structured
// bindings too; Clang implements that from version 16. Compilers without
// GNU attributes (MSVC) or without binding capture run the statements
// inline instead, with the same effect.
#if defined(__GNUC__) && !(defined(__clang__) && __clang_major__ < 16)
#define PSLLC_COLD_NORETURN __attribute__((cold, noinline, noreturn))
#define PSLLC_COLD_PATH_(...) [&]() PSLLC_COLD_NORETURN { __VA_ARGS__ }()
#else
#define PSLLC_COLD_PATH_(...) \
  do {                        \
    __VA_ARGS__               \
  } while (false)
#endif

/// Always-on assertion with streamed context:
///   PSLLC_ASSERT(x < n, "way index " << x << " out of range " << n);
/// The condition is evaluated exactly once, inline, in every build. Only
/// the failure path (formatting the message, detail::assertion_failed)
/// runs out of line, through PSLLC_COLD_PATH_: inlined, the
/// std::ostringstream code of every check would swell the hot functions
/// that carry many checks, such as the LLC's per-presentation path, and
/// cost inlining budget, instruction cache and registers on the path that
/// runs.
#define PSLLC_ASSERT(cond, ...)                                        \
  do {                                                                 \
    if (!(cond)) [[unlikely]] {                                        \
      PSLLC_COLD_PATH_(                                                \
          std::ostringstream psllc_assert_oss_;                        \
          psllc_assert_oss_ << __VA_ARGS__;                            \
          ::psllc::detail::assertion_failed(#cond, __FILE__, __LINE__, \
                                            psllc_assert_oss_.str());); \
    }                                                                  \
  } while (false)

/// Audit-tier contract: like PSLLC_ASSERT, but only evaluated when the build
/// defines PSLLC_AUDIT_ENABLED. In other builds the condition and message
/// are parsed (so they cannot rot) yet never evaluated, and the whole check
/// folds away.
#ifdef PSLLC_AUDIT_ENABLED
#define PSLLC_AUDIT(cond, ...) PSLLC_ASSERT(cond, __VA_ARGS__)
#else
#define PSLLC_AUDIT(cond, ...)                    \
  do {                                            \
    if (false) {                                  \
      (void)(cond);                               \
      std::ostringstream psllc_audit_oss_;        \
      psllc_audit_oss_ << __VA_ARGS__;            \
    }                                             \
  } while (false)
#endif

/// Configuration validation helper: throws ConfigError with message. Its
/// failure path is cold like PSLLC_ASSERT's, for the same reason: some
/// checks run per record (binary trace decoding).
#define PSLLC_CONFIG_CHECK(cond, ...)                          \
  do {                                                         \
    if (!(cond)) [[unlikely]] {                                \
      PSLLC_COLD_PATH_(                                        \
          std::ostringstream psllc_cfg_oss_;                   \
          psllc_cfg_oss_ << __VA_ARGS__;                       \
          throw ::psllc::ConfigError(psllc_cfg_oss_.str()););  \
    }                                                          \
  } while (false)

#endif  // PSLLC_COMMON_ASSERT_H_
