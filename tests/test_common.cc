// Unit tests for the common substrate: types, RNG, stats, tables, queues,
// invariant divisors, strings.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/fixed_queue.h"
#include "common/invariant_divisor.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/types.h"

namespace psllc {
namespace {

// --- types -----------------------------------------------------------------

TEST(Types, CoreIdComparisonAndValidity) {
  EXPECT_FALSE(kNoCore.valid());
  EXPECT_TRUE(CoreId{0}.valid());
  EXPECT_LT(CoreId{1}, CoreId{2});
  EXPECT_EQ(CoreId{3}, CoreId{3});
  EXPECT_EQ(to_string(CoreId{2}), "c2");
  EXPECT_EQ(to_string(kNoCore), "c?");
}

TEST(Types, AccessTypeHelpers) {
  EXPECT_TRUE(is_write(AccessType::kWrite));
  EXPECT_FALSE(is_write(AccessType::kRead));
  EXPECT_FALSE(is_write(AccessType::kIfetch));
}

TEST(Types, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_exact(64), 6);
  EXPECT_EQ(log2_exact(1), 0);
  EXPECT_EQ(log2_exact(std::uint64_t{1} << 63), 63);
}

TEST(Types, ModOrMaskMatchesModulo) {
  const std::vector<std::uint64_t> values = {
      0, 1, 63, 64, 65, (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
      (std::uint64_t{1} << 32) + 1, std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t n : {1, 2, 3, 4, 5, 7, 8, 12, 64, 100, 1024}) {
    for (const std::uint64_t v : values) {
      EXPECT_EQ(mod_or_mask(v, n), v % n) << v << " mod " << n;
    }
  }
}

// --- assertions ------------------------------------------------------------

TEST(Assert, ThrowsAssertionErrorWithContext) {
  try {
    PSLLC_ASSERT(1 == 2, "value was " << 42);
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// The condition runs inline exactly once whether the check passes or
// fails; only the message formatting is moved out of line.
TEST(Assert, EvaluatesConditionExactlyOnce) {
  int evaluations = 0;
  auto probe = [&evaluations](bool result) {
    ++evaluations;
    return result;
  };
  PSLLC_ASSERT(probe(true), "never formatted");
  EXPECT_EQ(evaluations, 1);
  int formatted = 0;
  auto message = [&formatted]() {
    ++formatted;
    return "formatted";
  };
  PSLLC_ASSERT(probe(true), message());
  EXPECT_EQ(evaluations, 2);
  EXPECT_EQ(formatted, 0);
  EXPECT_THROW(PSLLC_ASSERT(probe(false), message()), AssertionError);
  EXPECT_EQ(evaluations, 3);
  EXPECT_EQ(formatted, 1);
  // Configuration checks share the cold failure path.
  PSLLC_CONFIG_CHECK(probe(true), message());
  EXPECT_EQ(evaluations, 4);
  EXPECT_EQ(formatted, 1);
  EXPECT_THROW(PSLLC_CONFIG_CHECK(probe(false), message()), ConfigError);
  EXPECT_EQ(evaluations, 5);
  EXPECT_EQ(formatted, 2);
}

// The full text: expression as written, file, line of the check, and the
// streamed message — manipulators and template argument lists (whose
// commas split the macro arguments) included.
TEST(Assert, MessageKeepsExactText) {
  const std::uint64_t line_addr = 0xbeef;
  const int expected_line = __LINE__ + 2;
  try {
    PSLLC_ASSERT(line_addr == 0, "line 0x" << std::hex << line_addr << std::dec
                                           << " pair "
                                           << std::pair<int, int>{7, 8}.second
                                           << " "
                                           << std::tuple_size_v<
                                                  std::tuple<int, char, long>>);
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    const std::string expected =
        std::string("PSLLC_ASSERT failed: (line_addr == 0) at ") + __FILE__ +
        ":" + std::to_string(expected_line) + " — line 0xbeef pair 8 3";
    EXPECT_EQ(std::string(e.what()), expected);
  }
  // An empty message adds no separator.
  const int bare_line = __LINE__ + 2;
  try {
    PSLLC_ASSERT(line_addr < 16, "");
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string("PSLLC_ASSERT failed: (line_addr < 16) at ") +
                  __FILE__ + ":" + std::to_string(bare_line));
  }
}

// Messages may name structured bindings (the LLC's invariant sweeps do), so
// the out-of-line failure path must still be able to reach them.
TEST(Assert, MessageMayNameStructuredBindings) {
  const auto [set, way] = std::pair<int, int>{5, 9};
  try {
    PSLLC_ASSERT(set == way, "set " << set << " way " << way);
    FAIL() << "assert did not throw";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("set 5 way 9"), std::string::npos);
  }
  const std::map<int, int> table{{1, 2}};
  for (const auto& [key, value] : table) {
    EXPECT_THROW(PSLLC_ASSERT(key == value, "key " << key << " value "
                                                   << value),
                 AssertionError);
  }
}

TEST(Assert, ConfigCheckThrowsConfigError) {
  EXPECT_THROW(PSLLC_CONFIG_CHECK(false, "bad config"), ConfigError);
  const int bad = 42;
  try {
    PSLLC_CONFIG_CHECK(bad < 8, "value 0x" << std::hex << bad << std::dec
                                           << " exceeds "
                                           << std::pair<int, int>{8, 9}.first);
    FAIL() << "config check did not throw";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()), "value 0x2a exceeds 8");
  }
}

// PSLLC_AUDIT evaluates (and can throw) only in audit builds; elsewhere the
// condition must not even be evaluated.
TEST(Assert, AuditMatchesBuildMode) {
  int evaluations = 0;
  auto probe = [&evaluations]() {
    ++evaluations;
    return true;
  };
  PSLLC_AUDIT(probe(), "side-effect probe");
  EXPECT_EQ(evaluations, audit_enabled() ? 1 : 0);
  if (audit_enabled()) {
    EXPECT_THROW(PSLLC_AUDIT(false, "audit fires in audit builds"),
                 AssertionError);
  } else {
    EXPECT_NO_THROW(PSLLC_AUDIT(false, "compiled out"));
  }
}

// --- RNG --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(rng.next_below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo = hit_lo || v == -3;
    hit_hi = hit_hi || v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    hits += rng.next_bool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, MixSeedSeparatesStreams) {
  EXPECT_NE(mix_seed(1, 2, 3), mix_seed(1, 2, 4));
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
  EXPECT_EQ(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
}

// --- stats -------------------------------------------------------------------

TEST(Summary, TracksMinMaxMeanCount) {
  Summary s;
  for (std::int64_t v : {5, -2, 9, 0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.min(), -2);
  EXPECT_EQ(s.max(), 9);
  EXPECT_EQ(s.sum(), 12);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Summary, MergeCombines) {
  Summary a;
  a.add(1);
  a.add(5);
  Summary b;
  b.add(-7);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), -7);
  EXPECT_EQ(a.max(), 5);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 3);
}

TEST(Summary, EmptyAccessorsThrow) {
  Summary s;
  EXPECT_THROW((void)s.min(), AssertionError);
  EXPECT_THROW((void)s.max(), AssertionError);
  EXPECT_THROW((void)s.mean(), AssertionError);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(100, 10);  // buckets of width 10 + overflow
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(99);
  h.add(100);   // overflow
  h.add(5000);  // overflow
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(9), 1);
  EXPECT_EQ(h.bucket(10), 2);  // overflow bucket
  EXPECT_EQ(h.summary().count(), 6);
  EXPECT_EQ(h.summary().max(), 5000);
}

TEST(Histogram, QuantileApproximation) {
  Histogram h(1000, 100);
  for (int i = 0; i < 1000; ++i) {
    h.add(i);
  }
  EXPECT_NEAR(static_cast<double>(h.approx_quantile(0.5)), 500.0, 20.0);
  EXPECT_NEAR(static_cast<double>(h.approx_quantile(0.99)), 990.0, 20.0);
}

// --- table --------------------------------------------------------------------

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("value"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Table, RowSizeMismatchAsserts) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), AssertionError);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_cycles(979250), "979,250");
  EXPECT_EQ(format_cycles(-1234), "-1,234");
  EXPECT_EQ(format_cycles(42), "42");
}

// --- fixed queue -----------------------------------------------------------------

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  q.push(5);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, CapacityEnforced) {
  FixedQueue<int> q(2);
  q.push(1);
  q.push(2);
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(3), AssertionError);
  EXPECT_EQ(q.pop(), 1);
  q.push(3);  // wraps around
  EXPECT_EQ(q.at(0), 2);
  EXPECT_EQ(q.at(1), 3);
}

TEST(FixedQueue, EraseAtPreservesOrder) {
  FixedQueue<int> q(5);
  for (int i = 1; i <= 5; ++i) {
    q.push(i);
  }
  q.erase_at(2);  // remove 3
  EXPECT_EQ(q.size(), 4);
  EXPECT_EQ(q.at(0), 1);
  EXPECT_EQ(q.at(1), 2);
  EXPECT_EQ(q.at(2), 4);
  EXPECT_EQ(q.at(3), 5);
  q.erase_at(0);  // remove head
  EXPECT_EQ(q.front(), 2);
}

TEST(FixedQueue, FindIf) {
  FixedQueue<int> q(4);
  q.push(10);
  q.push(20);
  EXPECT_EQ(q.find_if([](int v) { return v == 20; }), 1);
  EXPECT_EQ(q.find_if([](int v) { return v == 99; }), -1);
}

TEST(FixedQueue, EmptyAccessorsAssert) {
  FixedQueue<int> q(2);
  EXPECT_THROW(q.pop(), AssertionError);
  EXPECT_THROW((void)q.front(), AssertionError);
  EXPECT_THROW((void)q.at(0), AssertionError);
}

TEST(FixedQueue, MatchesDequeAcrossWrapAround) {
  // Seeded pushes, pops, erasures and lookups against std::deque. Queues
  // run near full for thousands of steps, so the head wraps around the
  // ring many times at every capacity.
  for (const int capacity : {1, 2, 3, 5, 16}) {
    FixedQueue<int> q(capacity);
    std::deque<int> model;
    Rng rng(static_cast<std::uint64_t>(capacity) * 977);
    int next_value = 0;
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.next_below(8);
      if (op < 3 && !q.full()) {
        q.push(next_value);
        model.push_back(next_value);
        ++next_value;
      } else if (op < 5 && !q.empty()) {
        EXPECT_EQ(q.pop(), model.front());
        model.pop_front();
      } else if (op < 6 && !q.empty()) {
        const int pos = static_cast<int>(rng.next_below(model.size()));
        q.erase_at(pos);
        model.erase(model.begin() + pos);
      } else if (op < 7 && !q.empty()) {
        const int pos = static_cast<int>(rng.next_below(model.size()));
        q.at_mut(pos) += 1000000;
        model[static_cast<std::size_t>(pos)] += 1000000;
      } else if (!model.empty()) {
        // Look up a present value and one that was never pushed.
        const std::size_t pos = rng.next_below(model.size());
        const int value = model[pos];
        EXPECT_EQ(q.find_if([value](int v) { return v == value; }),
                  static_cast<int>(pos));
        EXPECT_EQ(q.find_if([](int v) { return v < 0; }), -1);
      }
      ASSERT_EQ(q.size(), static_cast<int>(model.size()))
          << "capacity " << capacity << " step " << step;
      EXPECT_EQ(q.full(), static_cast<int>(model.size()) == capacity);
      for (std::size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(q.at(static_cast<int>(i)), model[i]);
      }
      if (!model.empty()) {
        EXPECT_EQ(q.front(), model.front());
      }
    }
    // Refill after all the churn: the ring still accepts exactly
    // `capacity` elements in order.
    while (!q.empty()) {
      (void)q.pop();
    }
    for (int i = 0; i < capacity; ++i) {
      q.push(i);
    }
    EXPECT_THROW(q.push(capacity), AssertionError);
    for (int i = 0; i < capacity; ++i) {
      EXPECT_EQ(q.pop(), i);
    }
  }
}

// --- invariant divisor -------------------------------------------------------------

TEST(InvariantDivisor, MatchesHardwareDivision) {
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> divisors = {1,      2,       3,       5,   7,
                                         50,     100,     641,     1000,
                                         k32 - 1, k32 + 1, kMax / 3, kMax};
  for (int k = 0; k < 64; ++k) {
    divisors.push_back(std::uint64_t{1} << k);
  }
  Rng rng(2024);
  for (const std::uint64_t d : divisors) {
    const InvariantDivisor div(d);
    EXPECT_EQ(div.divisor(), d);
    std::vector<std::uint64_t> numerators = {0, 1, d - 1, d, kMax - 1, kMax};
    // Around the multiply-high / hardware-division boundary at 2^32.
    for (std::uint64_t n = k32 - 300; n < k32 + 300; ++n) {
      numerators.push_back(n);
    }
    // The multiples of d on either side of 2^32 and their neighbours,
    // where a rounding error in the quotient would show first.
    const std::uint64_t below = (k32 - 1) / d * d;
    for (const std::uint64_t m : {below, below + d}) {
      if (m >= 1) {
        numerators.push_back(m - 1);
      }
      numerators.push_back(m);
      numerators.push_back(m + 1);
    }
    for (int i = 0; i < 2000; ++i) {
      numerators.push_back(rng.next_u64());
      numerators.push_back(rng.next_u64() >> 32);
      numerators.push_back(rng.next_below(1000000));
    }
    for (const std::uint64_t n : numerators) {
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
    }
  }
}

TEST(InvariantDivisor, ExhaustiveBelowBoundForSmallDivisors) {
  // Every numerator of the top of the 32-bit range, for the slot widths and
  // TDM periods the benches use.
  constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
  for (const std::uint64_t d : {3, 5, 6, 7, 9, 10, 12, 25, 50, 100}) {
    const InvariantDivisor div(d);
    for (std::uint64_t n = k32 - 100000; n < k32; ++n) {
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
    }
  }
}

TEST(InvariantDivisor, ZeroDivisorAsserts) {
  EXPECT_THROW((void)InvariantDivisor{0}, AssertionError);
}

// --- strings -----------------------------------------------------------------------

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtil, TrimWhitespace) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(StringUtil, ParseU64DecimalAndHex) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("0x2A"), 42u);
  EXPECT_EQ(parse_u64(" 7 "), 7u);
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("0x").has_value());
  EXPECT_FALSE(parse_u64("12z").has_value());
}

TEST(StringUtil, ParseI64) {
  EXPECT_EQ(parse_i64("-5"), -5);
  EXPECT_EQ(parse_i64("123"), 123);
  EXPECT_FALSE(parse_i64("abc").has_value());
}

TEST(StringUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("NSS", "nss"));
  EXPECT_FALSE(iequals("SS", "NSS"));
}

}  // namespace
}  // namespace psllc
