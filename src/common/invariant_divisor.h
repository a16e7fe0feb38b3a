// Exact division by a divisor that is fixed once and then used many times
// (the TDM slot width, the TDM period).
//
// A 64-bit hardware division costs tens of cycles; a replay loop that maps
// cycles to slots and slots to schedule phases would pay it several times
// per slot. The constructor precomputes, once:
//  * for a power-of-two divisor, a shift and a mask — exact for every
//    numerator;
//  * otherwise M = ceil(2^64 / d). For d < 2^32 and n < 2^32,
//    floor(n / d) == floor(M * n / 2^64) exactly (Lemire, Kaser and Kurz,
//    "Faster remainder by direct computation", 2019, Theorem 1 with
//    F = 64, N = 32), so a quotient is the high half of one 64x64->128
//    multiply and a remainder one more multiply and subtract.
// Numerators at or above 2^32 (or divisors at or above 2^32) fall back to
// hardware division; simulated time reaches 2^32 cycles only in very long
// horizons.
#ifndef PSLLC_COMMON_INVARIANT_DIVISOR_H_
#define PSLLC_COMMON_INVARIANT_DIVISOR_H_

#include <bit>
#include <cstdint>
#include <limits>

#include "common/assert.h"
#include "common/types.h"

namespace psllc {

class InvariantDivisor {
 public:
  explicit InvariantDivisor(std::uint64_t divisor = 1) : divisor_(divisor) {
    PSLLC_ASSERT(divisor > 0, "division by zero");
    if (is_pow2(divisor)) {
      shift_ = std::countr_zero(divisor);
    } else if (divisor < kFastLimit) {
      multiplier_ = std::numeric_limits<std::uint64_t>::max() / divisor + 1;
      fast_limit_ = kFastLimit;
    }
  }

  [[nodiscard]] std::uint64_t divisor() const { return divisor_; }

  /// floor(n / divisor()).
  [[nodiscard]] std::uint64_t quotient(std::uint64_t n) const {
    if (shift_ >= 0) {
      return n >> shift_;
    }
    if (n < fast_limit_) {
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(multiplier_) * n) >> 64);
    }
    // The only hardware division left on the hot path: the multiply-high
    // form above is proven exact for 32-bit operands only.
    return n / divisor_;
  }

  /// n mod divisor().
  [[nodiscard]] std::uint64_t remainder(std::uint64_t n) const {
    if (shift_ >= 0) {
      return n & (divisor_ - 1);
    }
    return n - quotient(n) * divisor_;
  }

 private:
  static constexpr std::uint64_t kFastLimit = std::uint64_t{1} << 32;

  std::uint64_t divisor_;
  int shift_ = -1;                 ///< log2(divisor) for powers of two
  std::uint64_t multiplier_ = 0;   ///< ceil(2^64 / divisor) otherwise
  std::uint64_t fast_limit_ = 0;   ///< numerators below use multiplier_
};

}  // namespace psllc

#endif  // PSLLC_COMMON_INVARIANT_DIVISOR_H_
