// Replacement policy tests: exact behaviour for LRU/FIFO/NMRU, shared
// invariants for all policies (parameterized), and a differential check of
// ReplacementStore and SetStore against a reference model that keeps each
// policy in its textbook form (recency stack, insertion list, k-th eligible
// way, bit tree), one model per set.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "mem/replacement.h"
#include "mem/set_store.h"
#include "reference_cache.h"

namespace psllc::mem {
namespace {

using reference::ReferencePolicy;

std::uint64_t all_eligible(int ways) { return way_range_mask(0, ways); }

// --- LRU exact behaviour ----------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed) {
  ReplacementStore lru(ReplacementKind::kLru, 1, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(0, w);
  }
  lru.on_access(0, 0);  // order (MRU->LRU): 0,3,2,1
  EXPECT_EQ(lru.select_victim(0, all_eligible(4)), 1);
  lru.on_access(0, 1);  // 1,0,3,2
  EXPECT_EQ(lru.select_victim(0, all_eligible(4)), 2);
}

TEST(Lru, EligibilityMaskSkipsIneligible) {
  ReplacementStore lru(ReplacementKind::kLru, 1, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(0, w);
  }
  // LRU order is 3,2,1,0 from back; 0 and 1 masked -> 2.
  EXPECT_EQ(lru.select_victim(0, 0b1100), 2);
}

TEST(Lru, NoEligibleWayReturnsMinusOne) {
  ReplacementStore lru(ReplacementKind::kLru, 1, 2);
  lru.on_insert(0, 0);
  lru.on_insert(0, 1);
  EXPECT_EQ(lru.select_victim(0, 0), -1);
}

TEST(Lru, InvalidatedWayBecomesPreferredVictim) {
  ReplacementStore lru(ReplacementKind::kLru, 1, 3);
  for (int w = 0; w < 3; ++w) {
    lru.on_insert(0, w);
  }
  lru.on_access(0, 0);
  lru.on_invalidate(0, 2);
  // 2 moved to LRU position.
  EXPECT_EQ(lru.select_victim(0, all_eligible(3)), 2);
}

TEST(Lru, MaskBeyondWaysAsserts) {
  ReplacementStore lru(ReplacementKind::kLru, 1, 2);
  EXPECT_THROW((void)lru.select_victim(0, 0b100), AssertionError);
}

// --- FIFO exact behaviour ------------------------------------------------------

TEST(Fifo, EvictsInInsertionOrderIgnoringHits) {
  ReplacementStore fifo(ReplacementKind::kFifo, 1, 3);
  fifo.on_insert(0, 1);
  fifo.on_insert(0, 0);
  fifo.on_insert(0, 2);
  fifo.on_access(0, 1);  // hits do not refresh FIFO order
  EXPECT_EQ(fifo.select_victim(0, all_eligible(3)), 1);
  fifo.on_insert(0, 1);  // re-inserted: now newest
  EXPECT_EQ(fifo.select_victim(0, all_eligible(3)), 0);
}

// --- NMRU ---------------------------------------------------------------------

TEST(Nmru, NeverPicksMostRecentlyUsedWhenAlternativesExist) {
  ReplacementStore nmru(ReplacementKind::kNmru, 1, 4, 99);
  for (int w = 0; w < 4; ++w) {
    nmru.on_insert(0, w);
  }
  nmru.on_access(0, 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(nmru.select_victim(0, all_eligible(4)), 2);
  }
}

TEST(Nmru, PicksMruWhenOnlyEligible) {
  ReplacementStore nmru(ReplacementKind::kNmru, 1, 2, 1);
  nmru.on_insert(0, 0);
  nmru.on_insert(0, 1);
  EXPECT_EQ(nmru.select_victim(0, 0b10), 1);
}

// --- parameterized invariants for all policies ----------------------------------

using KindAndWays = std::tuple<ReplacementKind, int>;

std::string kind_ways_name(
    const ::testing::TestParamInfo<KindAndWays>& info) {
  return std::string(to_string(std::get<0>(info.param))) + "_w" +
         std::to_string(std::get<1>(info.param));
}

const auto kAllKinds =
    ::testing::Values(ReplacementKind::kLru, ReplacementKind::kFifo,
                      ReplacementKind::kRandom, ReplacementKind::kNmru,
                      ReplacementKind::kTreePlru);

class PolicyInvariantTest : public ::testing::TestWithParam<KindAndWays> {};

TEST_P(PolicyInvariantTest, VictimIsAlwaysEligible) {
  const auto [kind, ways] = GetParam();
  ReplacementStore policy(kind, 1, ways, 42);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(0, w);
  }
  Rng rng(kind == ReplacementKind::kRandom ? 3u : 4u);
  for (int round = 0; round < 300; ++round) {
    std::uint64_t eligible = 0;
    for (int w = 0; w < ways; ++w) {
      eligible |= static_cast<std::uint64_t>(rng.next_bool(0.6)) << w;
    }
    const int victim = policy.select_victim(0, eligible);
    if (eligible == 0) {
      EXPECT_EQ(victim, -1);
    } else {
      ASSERT_GE(victim, 0);
      ASSERT_LT(victim, ways);
      EXPECT_NE((eligible >> victim) & 1, 0u);
    }
    // Random access pattern keeps internal state exercised.
    policy.on_access(0, static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(ways))));
  }
}

TEST_P(PolicyInvariantTest, CopyIsIndependent) {
  const auto [kind, ways] = GetParam();
  ReplacementStore policy(kind, 1, ways, 7);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(0, w);
  }
  ReplacementStore copy = policy;
  // Mutate the original; a copy of a deterministic policy must keep its
  // answer stable for LRU/FIFO/PLRU. A stochastic copy must replay the
  // original's stream from the copy point.
  const int before = copy.select_victim(0, all_eligible(ways));
  if (kind == ReplacementKind::kLru || kind == ReplacementKind::kFifo ||
      kind == ReplacementKind::kTreePlru) {
    policy.on_access(0, before);
    policy.on_insert(0, before);
    EXPECT_EQ(copy.select_victim(0, all_eligible(ways)), before);
  } else {
    EXPECT_EQ(policy.select_victim(0, all_eligible(ways)), before);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariantTest,
                         ::testing::Combine(kAllKinds,
                                            ::testing::Values(1, 2, 3, 4, 8,
                                                              16, 64)),
                         kind_ways_name);

// --- differential check against the reference model ------------------------------

class ReferenceModelTest : public ::testing::TestWithParam<KindAndWays> {};

/// Sets per store in the differential checks: a count that is not a power
/// of two, each set against its own reference seeded as the store seeds it.
constexpr int kReferenceSets = 3;

std::vector<ReferencePolicy> references(ReplacementKind kind, int ways,
                                        std::uint64_t seed) {
  std::vector<ReferencePolicy> models;
  for (int s = 0; s < kReferenceSets; ++s) {
    models.emplace_back(kind, ways,
                        mix_seed(seed, static_cast<std::uint64_t>(s)));
  }
  return models;
}

// Policy level: any way of any set may be touched, invalidated or offered,
// valid or not, so the order stamps must reproduce the lists' order
// exactly, including where an invalidated way sits, and no set's updates
// may leak into another's.
TEST_P(ReferenceModelTest, ReplacementStoreMatchesReference) {
  const auto [kind, ways] = GetParam();
  const std::uint64_t seed = 500 + static_cast<std::uint64_t>(ways);
  std::vector<ReferencePolicy> reference = references(kind, ways, seed);
  ReplacementStore state(kind, kReferenceSets, ways, seed);
  Rng rng(seed * 31 + static_cast<std::uint64_t>(kind));
  for (int step = 0; step < 5000; ++step) {
    const auto set = static_cast<int>(rng.next_below(kReferenceSets));
    ReferencePolicy& model = reference[static_cast<std::size_t>(set)];
    const auto way = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways)));
    switch (rng.next_below(4)) {
      case 0:
        model.on_insert(way);
        state.on_insert(set, way);
        break;
      case 1:
        model.on_access(way);
        state.on_access(set, way);
        break;
      case 2:
        model.on_invalidate(way);
        state.on_invalidate(set, way);
        break;
      default: {
        const std::uint64_t mask = rng.next_u64() & all_eligible(ways);
        ASSERT_EQ(state.select_victim(set, mask), model.select_victim(mask))
            << "step " << step << ", set " << set << ", mask 0x" << std::hex
            << mask;
      }
    }
  }
}

// Set level: the same kind of sequence through SetStore, which only ever
// offers valid ways, against the references fed the same calls.
TEST_P(ReferenceModelTest, SetStoreMatchesReference) {
  const auto [kind, ways] = GetParam();
  const std::uint64_t seed = 900 + static_cast<std::uint64_t>(ways);
  std::vector<ReferencePolicy> reference = references(kind, ways, seed);
  SetStore store(kReferenceSets, ways, kind, seed);
  Rng rng(seed * 17 + static_cast<std::uint64_t>(kind));
  LineAddr next_line = 1;
  for (int step = 0; step < 5000; ++step) {
    const auto set = static_cast<int>(rng.next_below(kReferenceSets));
    ReferencePolicy& model = reference[static_cast<std::size_t>(set)];
    const auto way = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways)));
    const bool valid = store.way(set, way).valid();
    const std::uint64_t op = rng.next_below(10);
    if (op < 3) {  // fill: the way a cache would pick, as SetAssocCache does
      int target = store.find_free(set);
      if (target < 0) {
        target = store.select_victim_any(set);
        ASSERT_EQ(target, model.select_victim(store.valid_mask(set)))
            << "step " << step << ", set " << set;
        (void)store.invalidate(set, target);
        model.on_invalidate(target);
      }
      store.insert(set, next_line++, target, LineState::kClean);
      model.on_insert(target);
    } else if (op < 5) {
      if (valid) {
        store.touch(set, way);
        model.on_access(way);
      }
    } else if (op < 6) {
      if (valid) {
        (void)store.invalidate(set, way);
        model.on_invalidate(way);
      }
    } else {
      const std::uint64_t mask =
          (op == 9 ? ~std::uint64_t{0} : rng.next_u64()) &
          store.valid_mask(set);
      ASSERT_EQ(store.select_victim(set, mask), model.select_victim(mask))
          << "step " << step << ", set " << set << ", mask 0x" << std::hex
          << mask;
    }
    ASSERT_EQ(store.valid_lines(), store.count_valid_lines());
  }
}

// A whole-store copy, as lane replay takes of a kernel's private caches
// (adopt_lane) and of LLC rows (adopt_solo_lane): from the copy point on,
// the copy answers exactly as a reference snapshot of the original would,
// whatever the original does afterwards.
TEST_P(ReferenceModelTest, StoreCopyHasIndependentPolicyState) {
  const auto [kind, ways] = GetParam();
  const std::uint64_t seed = 1300 + static_cast<std::uint64_t>(ways);
  std::vector<ReferencePolicy> reference = references(kind, ways, seed);
  SetStore original(kReferenceSets, ways, kind, seed);
  Rng rng(seed * 13 + static_cast<std::uint64_t>(kind));
  LineAddr next_line = 1;
  for (int s = 0; s < kReferenceSets; ++s) {
    for (int w = 0; w < ways; ++w) {
      original.insert(s, next_line++, w, LineState::kClean);
      reference[static_cast<std::size_t>(s)].on_insert(w);
    }
  }
  auto scramble = [&](SetStore& store, std::vector<ReferencePolicy>* models) {
    for (int step = 0; step < 200; ++step) {
      const auto set = static_cast<int>(rng.next_below(kReferenceSets));
      const auto way = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(ways)));
      if (rng.next_bool(0.5)) {
        store.touch(set, way);
        if (models != nullptr) {
          (*models)[static_cast<std::size_t>(set)].on_access(way);
        }
      } else {
        const int victim = store.select_victim_any(set);
        if (models != nullptr) {
          ASSERT_EQ(victim, (*models)[static_cast<std::size_t>(set)]
                                .select_victim(store.valid_mask(set)));
        }
      }
    }
  };
  scramble(original, &reference);
  SetStore copy = original;
  std::vector<ReferencePolicy> snapshot = reference;
  scramble(original, nullptr);  // must not reach the copy
  for (int s = 0; s < kReferenceSets; ++s) {
    (void)original.invalidate(s, 0);
  }
  for (int step = 0; step < 300; ++step) {
    const auto set = static_cast<int>(rng.next_below(kReferenceSets));
    const std::uint64_t mask = rng.next_u64() & copy.valid_mask(set);
    ASSERT_EQ(copy.select_victim(set, mask),
              snapshot[static_cast<std::size_t>(set)].select_victim(mask))
        << "step " << step << ", set " << set;
    const auto way = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways)));
    copy.touch(set, way);
    snapshot[static_cast<std::size_t>(set)].on_access(way);
  }
  EXPECT_EQ(copy.valid_lines(), kReferenceSets * ways);
  EXPECT_EQ(original.valid_lines(), kReferenceSets * (ways - 1));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReferenceModelTest,
                         ::testing::Combine(kAllKinds,
                                            ::testing::Values(1, 2, 3, 4, 8,
                                                              16, 64)),
                         kind_ways_name);

}  // namespace
}  // namespace psllc::mem
