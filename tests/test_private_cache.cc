// Tests for the per-core L1I/L1D + L2 hierarchy: hit levels, inclusion,
// dirtiness merging, forced evictions, and a step-by-step differential
// check against a reference hierarchy for all five replacement policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "mem/private_cache.h"
#include "reference_cache.h"

namespace psllc::mem {
namespace {

PrivateCacheConfig small_config() {
  PrivateCacheConfig config;
  config.l1i = {2, 1, 64};
  config.l1d = {2, 2, 64};
  config.l2 = {4, 2, 64};
  return config;
}

Addr addr_of_line(LineAddr line) { return line * 64; }

TEST(PrivateCacheConfig, ValidatesShapes) {
  PrivateCacheConfig config = small_config();
  config.l1d.line_bytes = 128;
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();
  config.l2 = {1, 1, 64};  // smaller than L1D
  EXPECT_THROW(config.validate(), ConfigError);
  config = small_config();
  config.l1_hit_latency = 0;
  EXPECT_THROW(config.validate(), ConfigError);
}

TEST(PrivateCache, MissThenFillThenL1Hit) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x10);
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kMiss);
  caches.fill(addr, AccessType::kRead, false);
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kL1);
  EXPECT_TRUE(caches.holds(0x10));
}

TEST(PrivateCache, L2HitPromotesToL1) {
  PrivateCacheHierarchy caches(small_config(), 1);
  // Fill lines mapping to one L1D set (2 ways) until one is L1-evicted but
  // still in L2: lines 0, 2, 4 all map to L1D set 0 (2 sets) and L2 sets
  // 0/2/0 (4 sets)... use lines 0, 2, 4: L1D sets 0,0,0; L2 sets 0,2,0 --
  // line 4 evicts line 0 from L2 too (2-way L2 set 0 holds {0,4}). Keep it
  // in L2 by using lines 0, 2, 6: L2 sets 0, 2, 2 and L1D sets 0, 0, 0.
  caches.fill(addr_of_line(0), AccessType::kRead, false);
  caches.fill(addr_of_line(2), AccessType::kRead, false);
  caches.fill(addr_of_line(6), AccessType::kRead, false);
  // L1D set 0 holds the two most recent {2, 6}; line 0 is L2-only now.
  EXPECT_EQ(caches.access(addr_of_line(0), AccessType::kRead), HitLevel::kL2);
  // Promoted: next access is an L1 hit.
  EXPECT_EQ(caches.access(addr_of_line(0), AccessType::kRead), HitLevel::kL1);
}

TEST(PrivateCache, IfetchUsesL1IOnly) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x20);
  caches.fill(addr, AccessType::kIfetch, false);
  EXPECT_TRUE(caches.l1i().contains(0x20));
  EXPECT_FALSE(caches.l1d().contains(0x20));
  EXPECT_EQ(caches.access(addr, AccessType::kIfetch), HitLevel::kL1);
  // A *data* access to the same line misses L1D but hits L2.
  EXPECT_EQ(caches.access(addr, AccessType::kRead), HitLevel::kL2);
}

TEST(PrivateCache, WriteMakesLineDirty) {
  PrivateCacheHierarchy caches(small_config(), 1);
  const Addr addr = addr_of_line(0x30);
  caches.fill(addr, AccessType::kWrite, true);
  EXPECT_TRUE(caches.holds_dirty(0x30));
}

TEST(PrivateCache, L2VictimMergesL1Dirtiness) {
  PrivateCacheHierarchy caches(small_config(), 1);
  // Dirty line in L1D; evict it from L2 via set pressure: lines 0x0, 0x4,
  // 0x8 map to L2 set 0 (4 sets, 2 ways).
  caches.fill(addr_of_line(0x0), AccessType::kWrite, true);
  caches.fill(addr_of_line(0x4), AccessType::kRead, false);
  const auto victim = caches.fill(addr_of_line(0x8), AccessType::kRead, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x0u);
  EXPECT_TRUE(victim->dirty) << "L1 dirtiness must merge into the victim";
  // Inclusion: the victim is gone from L1 too.
  EXPECT_FALSE(caches.l1d().contains(0x0));
  EXPECT_TRUE(caches.check_inclusion());
}

TEST(PrivateCache, ForceEvictRemovesEverywhereAndReportsDirty) {
  PrivateCacheHierarchy caches(small_config(), 1);
  caches.fill(addr_of_line(0x5), AccessType::kWrite, true);
  const ForcedEviction result = caches.force_evict(0x5);
  EXPECT_TRUE(result.was_present);
  EXPECT_TRUE(result.was_dirty);
  EXPECT_FALSE(caches.holds(0x5));
  EXPECT_FALSE(caches.l1d().contains(0x5));
  const ForcedEviction absent = caches.force_evict(0x5);
  EXPECT_FALSE(absent.was_present);
}

TEST(PrivateCache, PreloadPlacesLineInL2Only) {
  PrivateCacheHierarchy caches(small_config(), 1);
  caches.preload(0x7, false);
  EXPECT_TRUE(caches.holds(0x7));
  EXPECT_FALSE(caches.l1d().contains(0x7));
  EXPECT_THROW(caches.preload(0x7, false), AssertionError);
}

TEST(PrivateCache, CapacityLinesIsL2Capacity) {
  PrivateCacheHierarchy caches(small_config(), 1);
  EXPECT_EQ(caches.capacity_lines(), 8);
  PrivateCacheConfig paper;  // defaults: 4-way x 16-set L2
  PrivateCacheHierarchy paper_caches(paper, 1);
  EXPECT_EQ(paper_caches.capacity_lines(), 64);
}

// --- property and differential tests over all five policies -------------------

using reference::RefEvicted;
using reference::ReferenceHierarchy;
using reference::RefLevel;

/// Data-only streams never fetch instructions, so L1I stays empty and every
/// L2-victim purge and back-invalidation skips it; mixed streams fetch too.
enum class Stream : std::uint8_t { kDataOnly, kMixed };

using PropertyParam = std::tuple<ReplacementKind, Stream, std::uint64_t>;

PrivateCacheConfig config_for(ReplacementKind kind) {
  PrivateCacheConfig config = small_config();
  config.replacement = kind;
  return config;
}

/// One random step of a core's traffic: mostly accesses (filled on a miss,
/// as a core fills the LLC's response), some back-invalidations, and in
/// mixed streams instruction fetches over half the lines.
struct Step {
  enum class Kind : std::uint8_t { kAccess, kForceEvict } kind;
  LineAddr line;
  AccessType type;
};

Step random_step(Rng& rng, Stream stream) {
  const LineAddr line = rng.next_below(64);
  const double action = rng.next_double();
  if (action < 0.7) {
    return {Step::Kind::kAccess, line,
            rng.next_bool(0.3) ? AccessType::kWrite : AccessType::kRead};
  }
  if (action < 0.85 || stream == Stream::kDataOnly) {
    return {Step::Kind::kForceEvict, line, AccessType::kRead};
  }
  return {Step::Kind::kAccess, rng.next_below(32), AccessType::kIfetch};
}

class PrivateCacheProperty : public ::testing::TestWithParam<PropertyParam> {};

// Inclusion holds under arbitrary access/fill/evict interleaving.
TEST_P(PrivateCacheProperty, InclusionInvariantUnderRandomTraffic) {
  const auto [kind, stream, seed] = GetParam();
  PrivateCacheHierarchy caches(config_for(kind), seed);
  Rng rng(seed);
  for (int step = 0; step < 3000; ++step) {
    const Step next = random_step(rng, stream);
    if (next.kind == Step::Kind::kForceEvict) {
      caches.force_evict(next.line);
    } else {
      const Addr addr = addr_of_line(next.line);
      if (caches.access(addr, next.type) == HitLevel::kMiss) {
        caches.fill(addr, next.type, is_write(next.type));
      }
    }
    ASSERT_TRUE(caches.check_inclusion()) << "at step " << step;
  }
}

HitLevel to_hit_level(RefLevel level) {
  switch (level) {
    case RefLevel::kL1: return HitLevel::kL1;
    case RefLevel::kL2: return HitLevel::kL2;
    case RefLevel::kMiss: return HitLevel::kMiss;
  }
  return HitLevel::kMiss;
}

std::vector<LineAddr> sorted_lines(const SetAssocCache& cache) {
  std::vector<LineAddr> lines = cache.resident_lines();
  std::sort(lines.begin(), lines.end());
  return lines;
}

// Step by step against the reference hierarchy, which scans every level
// on every operation: the same hit levels, L2 victims with the same merged
// dirtiness, the same back-invalidation results, the same contents and
// statistics. On data-only streams L1I must stay empty throughout, so the
// skip path is what runs.
TEST_P(PrivateCacheProperty, MatchesReferenceHierarchy) {
  const auto [kind, stream, seed] = GetParam();
  const PrivateCacheConfig config = config_for(kind);
  PrivateCacheHierarchy caches(config, seed);
  ReferenceHierarchy model(config.l1i, config.l1d, config.l2, kind, seed);
  Rng rng(seed * 7 + 1);
  int fills = 0;
  int l2_victims = 0;
  int dirty_victims = 0;
  int forced_present = 0;
  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE(testing::Message() << "step " << step);
    const Step next = random_step(rng, stream);
    if (next.kind == Step::Kind::kForceEvict) {
      const ForcedEviction got = caches.force_evict(next.line);
      const auto [present, dirty] = model.force_evict(next.line);
      ASSERT_EQ(got.was_present, present);
      ASSERT_EQ(got.was_dirty, dirty);
      forced_present += present ? 1 : 0;
    } else {
      const Addr addr = addr_of_line(next.line);
      const HitLevel level = caches.access(addr, next.type);
      ASSERT_EQ(level, to_hit_level(model.access(next.line, next.type)));
      if (level == HitLevel::kMiss) {
        const std::optional<Evicted> got =
            caches.fill(addr, next.type, is_write(next.type));
        const std::optional<RefEvicted> want =
            model.fill(next.line, next.type, is_write(next.type));
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got) {
          ASSERT_EQ(got->line, want->line);
          ASSERT_EQ(got->dirty, want->dirty);
          ++l2_victims;
          dirty_victims += got->dirty ? 1 : 0;
        }
        ++fills;
      }
    }
    if (stream == Stream::kDataOnly) {
      ASSERT_EQ(caches.l1i().valid_lines(), 0);
    }
    ASSERT_EQ(caches.l1i().valid_lines(),
              caches.l1i().store().count_valid_lines());
    ASSERT_EQ(caches.l1d().valid_lines(),
              caches.l1d().store().count_valid_lines());
    ASSERT_EQ(caches.l2().valid_lines(),
              caches.l2().store().count_valid_lines());
    if (step % 64 == 0) {
      ASSERT_EQ(sorted_lines(caches.l1i()), model.l1i().lines());
      ASSERT_EQ(sorted_lines(caches.l1d()), model.l1d().lines());
      ASSERT_EQ(sorted_lines(caches.l2()), model.l2().lines());
    }
  }
  EXPECT_EQ(caches.l1_hits(), model.l1_hits());
  EXPECT_EQ(caches.l2_hits(), model.l2_hits());
  EXPECT_EQ(caches.misses(), model.misses());
  EXPECT_EQ(caches.l1i().hits(), model.l1i().hits());
  EXPECT_EQ(caches.l1i().misses(), model.l1i().misses());
  EXPECT_EQ(caches.l1d().hits(), model.l1d().hits());
  EXPECT_EQ(caches.l1d().misses(), model.l1d().misses());
  EXPECT_EQ(caches.l2().hits(), model.l2().hits());
  EXPECT_EQ(caches.l2().misses(), model.l2().misses());
  // The streams really exercised the paths compared above.
  EXPECT_GT(fills, 100);
  EXPECT_GT(l2_victims, 50);
  EXPECT_GT(dirty_victims, 10);
  EXPECT_GT(forced_present, 20);
  if (stream == Stream::kMixed) {
    EXPECT_GT(caches.l1i().hits(), 0);
  }
}

const auto kAllKinds =
    ::testing::Values(ReplacementKind::kLru, ReplacementKind::kFifo,
                      ReplacementKind::kRandom, ReplacementKind::kNmru,
                      ReplacementKind::kTreePlru);

INSTANTIATE_TEST_SUITE_P(
    PoliciesStreamsSeeds, PrivateCacheProperty,
    ::testing::Combine(kAllKinds,
                       ::testing::Values(Stream::kDataOnly, Stream::kMixed),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) +
             (std::get<1>(info.param) == Stream::kDataOnly ? "_data"
                                                           : "_mixed") +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace psllc::mem
