// Tests for set_store and set_assoc_cache: lookup, fill/evict, dirtiness,
// and geometry validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "mem/set_assoc_cache.h"
#include "mem/set_store.h"

namespace psllc::mem {
namespace {

SetStore make_set(int ways) { return SetStore(1, ways, ReplacementKind::kLru); }

// --- SetStore (one set) ------------------------------------------------------

TEST(SetStore, InsertFindInvalidate) {
  SetStore set = make_set(2);
  EXPECT_EQ(set.find(0, 0x10), -1);
  EXPECT_EQ(set.find_free(0), 0);
  set.insert(0, 0x10, 0, LineState::kClean);
  EXPECT_EQ(set.find(0, 0x10), 0);
  EXPECT_EQ(set.valid_count(0), 1);
  const LineMeta old = set.invalidate(0, 0);
  EXPECT_EQ(old.line, 0x10u);
  EXPECT_EQ(set.find(0, 0x10), -1);
}

TEST(SetStore, RejectsDuplicateLine) {
  SetStore set = make_set(2);
  set.insert(0, 0x10, 0, LineState::kClean);
  EXPECT_THROW(set.insert(0, 0x10, 1, LineState::kClean), AssertionError);
}

TEST(SetStore, RejectsInsertIntoOccupiedWay) {
  SetStore set = make_set(2);
  set.insert(0, 0x10, 0, LineState::kClean);
  EXPECT_THROW(set.insert(0, 0x20, 0, LineState::kClean), AssertionError);
  // The scan-free placement keeps every other check.
  EXPECT_THROW(set.place(0, 0x20, 0, LineState::kClean), AssertionError);
  EXPECT_THROW(set.place(0, 0x20, 2, LineState::kClean), AssertionError);
  EXPECT_THROW(set.place(0, 0x20, 1, LineState::kInvalid), AssertionError);
}

TEST(SetStore, DirtyTransitions) {
  SetStore set = make_set(1);
  set.insert(0, 0x1, 0, LineState::kClean);
  EXPECT_FALSE(set.way(0, 0).dirty());
  set.mark_dirty(0, 0);
  EXPECT_TRUE(set.way(0, 0).dirty());
  set.mark_clean(0, 0);
  EXPECT_FALSE(set.way(0, 0).dirty());
  // An invalidated dirty way reads back as an empty, clean one.
  set.mark_dirty(0, 0);
  EXPECT_TRUE(set.invalidate(0, 0).dirty());
  EXPECT_FALSE(set.way(0, 0).valid());
  EXPECT_EQ(set.way(0, 0).line, 0u);
  set.insert(0, 0x2, 0, LineState::kClean);
  EXPECT_FALSE(set.way(0, 0).dirty());
}

TEST(SetStore, VictimMaskRejectsInvalidWays) {
  SetStore set = make_set(2);
  set.insert(0, 0x1, 0, LineState::kClean);
  EXPECT_THROW((void)set.select_victim(0, 0b11),
               AssertionError);  // way 1 invalid
}

TEST(SetStore, CopyGetsIndependentPolicy) {
  SetStore a = make_set(2);
  a.insert(0, 0x1, 0, LineState::kClean);
  a.insert(0, 0x2, 1, LineState::kClean);
  SetStore b = a;
  a.touch(0, 0);  // a's LRU = way 1; b's LRU unchanged = way 0
  EXPECT_EQ(a.select_victim_any(0), 1);
  EXPECT_EQ(b.select_victim_any(0), 0);
}

// --- SetStore (many sets) ----------------------------------------------------

TEST(SetStore, SetsAreIndependentAndCountedTogether) {
  SetStore store(3, 2, ReplacementKind::kLru);  // not a power of two
  store.insert(0, 0x7, 0, LineState::kClean);
  store.insert(2, 0x7, 1, LineState::kDirty);  // same tag, another set
  EXPECT_EQ(store.find(0, 0x7), 0);
  EXPECT_EQ(store.find(1, 0x7), -1);
  EXPECT_EQ(store.find(2, 0x7), 1);
  EXPECT_EQ(store.find_free(2), 0);
  EXPECT_TRUE(store.way(2, 1).dirty());
  EXPECT_FALSE(store.way(0, 0).dirty());
  EXPECT_EQ(store.valid_lines(), 2);
  EXPECT_EQ(store.count_valid_lines(), 2);
  store.insert(2, 0x8, 0, LineState::kClean);
  store.touch(2, 1);  // set 2's LRU is way 0; set 0 keeps its own order
  EXPECT_EQ(store.select_victim_any(2), 0);
  EXPECT_EQ(store.select_victim_any(0), 0);
  (void)store.invalidate(0, 0);
  EXPECT_EQ(store.valid_lines(), 2);
  EXPECT_EQ(store.count_valid_lines(), 2);
  EXPECT_THROW((void)store.find(3, 0x7), AssertionError);
  EXPECT_THROW((void)store.valid_mask(-1), AssertionError);
}

TEST(SetStore, CopySetsTakesRowsOnly) {
  SetStore source(4, 2, ReplacementKind::kLru);
  SetStore target(4, 2, ReplacementKind::kLru);
  // Every source set ends with way 0 as its LRU way; a fresh set's LRU
  // way is way 1, so the copied rows must bring their policy state along.
  for (int s = 0; s < 4; ++s) {
    source.insert(s, 0x10 + static_cast<LineAddr>(s), 0, LineState::kDirty);
    source.insert(s, 0x20 + static_cast<LineAddr>(s), 1, LineState::kClean);
    source.touch(s, 1);
  }
  target.insert(0, 0x99, 0, LineState::kClean);
  target.insert(3, 0x98, 1, LineState::kClean);
  target.copy_sets(source, 1, 2);
  EXPECT_EQ(target.find(0, 0x99), 0);  // outside the copied rows
  EXPECT_EQ(target.find(3, 0x98), 1);
  for (int s = 1; s <= 2; ++s) {
    EXPECT_EQ(target.find(s, 0x10 + static_cast<LineAddr>(s)), 0);
    EXPECT_TRUE(target.way(s, 0).dirty());
    EXPECT_EQ(target.select_victim_any(s), 0);
  }
  EXPECT_EQ(target.valid_lines(), 6);
  EXPECT_EQ(target.count_valid_lines(), 6);
  SetStore other_shape(4, 4, ReplacementKind::kLru);
  EXPECT_THROW(target.copy_sets(other_shape, 0, 1), AssertionError);
  EXPECT_THROW(target.copy_sets(source, 3, 2), AssertionError);
}

// --- SetAssocCache --------------------------------------------------------------

TEST(SetAssocCache, GeometryValidation) {
  EXPECT_THROW(SetAssocCache({0, 2, 64}, ReplacementKind::kLru), ConfigError);
  EXPECT_THROW(SetAssocCache({2, 0, 64}, ReplacementKind::kLru), ConfigError);
  EXPECT_THROW(SetAssocCache({2, 2, 48}, ReplacementKind::kLru), ConfigError);
  EXPECT_THROW(SetAssocCache({2, 65, 64}, ReplacementKind::kLru), ConfigError);
  EXPECT_NO_THROW(SetAssocCache({2, 64, 64}, ReplacementKind::kLru));
}

TEST(SetAssocCache, HitUpdatesStateAndStats) {
  SetAssocCache cache({4, 2, 64}, ReplacementKind::kLru);
  EXPECT_FALSE(cache.access(0x10, false).hit());
  cache.fill(0x10, false);
  EXPECT_TRUE(cache.access(0x10, false).hit());
  EXPECT_FALSE(cache.is_dirty(0x10));
  EXPECT_TRUE(cache.access(0x10, true).hit());
  EXPECT_TRUE(cache.is_dirty(0x10));
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(SetAssocCache, FillEvictsLruWhenFull) {
  SetAssocCache cache({1, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x1, false);
  cache.fill(0x2, true);
  const auto victim = cache.fill(0x3, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0x1u);
  EXPECT_FALSE(victim->dirty);
  EXPECT_FALSE(cache.contains(0x1));
  EXPECT_TRUE(cache.contains(0x2));
  EXPECT_TRUE(cache.contains(0x3));
}

TEST(SetAssocCache, FillReportsDirtyVictim) {
  SetAssocCache cache({1, 1, 64}, ReplacementKind::kLru);
  cache.fill(0x1, true);
  const auto victim = cache.fill(0x2, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(victim->dirty);
}

TEST(SetAssocCache, RemoveReturnsMetadata) {
  SetAssocCache cache({2, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x4, true);
  const auto removed = cache.remove(0x4);
  ASSERT_TRUE(removed.has_value());
  EXPECT_TRUE(removed->dirty);
  EXPECT_FALSE(cache.remove(0x4).has_value());
}

TEST(SetAssocCache, FillRejectsResidentLine) {
  SetAssocCache cache({2, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x4, false);
  EXPECT_THROW(cache.fill(0x4, false), AssertionError);
  EXPECT_THROW(cache.fill(cache.lookup(0x4), false), AssertionError);
  // In a full set the check comes before the victim choice, so a resident
  // line is never evicted and installed again.
  cache.fill(0x6, false);
  EXPECT_THROW(cache.fill(0x6, false), AssertionError);
  EXPECT_THROW(cache.fill(0x4, false), AssertionError);
  EXPECT_EQ(cache.valid_lines(), 2);
}

TEST(SetAssocCache, SetMappingIsModulo) {
  SetAssocCache cache({4, 1, 64}, ReplacementKind::kLru);
  // Lines 0 and 4 share set 0 (1 way): second fill evicts the first.
  cache.fill(0, false);
  const auto victim = cache.fill(4, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 0u);
  // Line 1 (set 1) coexists.
  cache.fill(1, false);
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(1));
}

TEST(SetAssocCache, ResidentLinesAndValidCount) {
  SetAssocCache cache({4, 2, 64}, ReplacementKind::kLru);
  cache.fill(0x11, false);
  cache.fill(0x22, false);
  EXPECT_EQ(cache.valid_lines(), 2);
  const auto lines = cache.resident_lines();
  EXPECT_EQ(lines.size(), 2u);
}

TEST(SetAssocCache, LineOfUsesLineSize) {
  CacheGeometry geometry{4, 2, 64};
  EXPECT_EQ(geometry.line_of(0), 0u);
  EXPECT_EQ(geometry.line_of(63), 0u);
  EXPECT_EQ(geometry.line_of(64), 1u);
  EXPECT_EQ(geometry.line_of(0x1000), 0x40u);
  CacheGeometry wide{4, 2, 128};
  EXPECT_EQ(wide.line_of(255), 1u);
}

TEST(CacheGeometry, SetOfMatchesModuloAtExtremeLines) {
  // set_of masks power-of-two set counts and divides the rest; both must
  // agree with the plain `line % num_sets` definition on the whole range.
  constexpr LineAddr k32 = LineAddr{1} << 32;
  const std::vector<LineAddr> lines = {
      0,           1,           7,           k32 - 1,
      k32,         k32 + 1,     LineAddr{1} << 63,
      (LineAddr{1} << 63) + 5,  std::numeric_limits<LineAddr>::max() - 1,
      std::numeric_limits<LineAddr>::max()};
  for (const int sets : {1, 2, 3, 4, 5, 6, 7, 12, 16, 24, 64, 100, 1024}) {
    const CacheGeometry geometry{sets, 2, 64};
    for (const LineAddr line : lines) {
      EXPECT_EQ(geometry.set_of(line),
                static_cast<int>(line % static_cast<std::uint64_t>(sets)))
          << "line " << line << " sets " << sets;
    }
    for (LineAddr line = 0; line < 300; ++line) {
      EXPECT_EQ(geometry.set_of(line),
                static_cast<int>(line % static_cast<std::uint64_t>(sets)));
    }
  }
}

TEST(SetAssocCache, NonPowerOfTwoSetsIndexByModulo) {
  // 3 sets x 1 way: lines 1 and 4 collide (1 mod 3 == 4 mod 3), line 2
  // does not.
  SetAssocCache cache({3, 1, 64}, ReplacementKind::kLru);
  cache.fill(1, false);
  cache.fill(2, false);
  const auto victim = cache.fill(4, false);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->line, 1u);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(4));
}

// --- parameterized: geometry sweep ------------------------------------------------

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CacheGeometrySweep, CapacityNeverExceeded) {
  const auto [sets, ways] = GetParam();
  SetAssocCache cache({sets, ways, 64}, ReplacementKind::kLru);
  for (LineAddr line = 0; line < 1000; ++line) {
    const Lookup at = cache.access(line, false);
    if (!at.hit()) {
      cache.fill(at, false);
    }
    ASSERT_LE(cache.valid_lines(), sets * ways);
    ASSERT_EQ(cache.valid_lines(), cache.store().count_valid_lines());
  }
  EXPECT_EQ(cache.valid_lines(), sets * ways);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheGeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 16, 32),
                                            ::testing::Values(1, 2, 4, 16)),
                         [](const auto& info) {
                           return "s" +
                                  std::to_string(std::get<0>(info.param)) +
                                  "_w" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace psllc::mem
