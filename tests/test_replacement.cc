// Replacement policy tests: exact behaviour for LRU/FIFO/NMRU, shared
// invariants for all policies (parameterized), and a differential check of
// ReplacementState and CacheSet against a reference model that keeps each
// policy in its textbook form (recency stack, insertion list, k-th eligible
// way, bit tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "mem/cache_set.h"
#include "mem/replacement.h"

namespace psllc::mem {
namespace {

std::uint64_t all_eligible(int ways) { return way_range_mask(0, ways); }

// --- reference model ---------------------------------------------------------

/// The policies as ordered lists and trees, moving entries on every update.
class ReferencePolicy {
 public:
  ReferencePolicy(ReplacementKind kind, int ways, std::uint64_t seed)
      : kind_(kind), ways_(ways), order_(static_cast<std::size_t>(ways)),
        rng_(seed) {
    // LRU: front = MRU, back = LRU. FIFO: front = oldest.
    std::iota(order_.begin(), order_.end(), 0);
    while (leaves_ < ways) {
      leaves_ *= 2;
    }
    plru_bits_.assign(static_cast<std::size_t>(leaves_), false);
  }

  void on_insert(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kFifo: move_to_back(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kRandom: break;
    }
  }

  void on_access(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom: break;
    }
  }

  void on_invalidate(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_back(way); break;
      case ReplacementKind::kFifo: move_to_front(way); break;
      case ReplacementKind::kNmru:
        if (mru_ == way) {
          mru_ = -1;
        }
        break;
      case ReplacementKind::kRandom:
      case ReplacementKind::kTreePlru: break;
    }
  }

  int select_victim(std::uint64_t mask) {
    auto eligible = [mask](int w) { return ((mask >> w) & 1) != 0; };
    switch (kind_) {
      case ReplacementKind::kLru:
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
          if (eligible(*it)) {
            return *it;
          }
        }
        return -1;
      case ReplacementKind::kFifo:
        for (int w : order_) {
          if (eligible(w)) {
            return w;
          }
        }
        return -1;
      case ReplacementKind::kRandom:
        return kth_eligible(eligible, -1);
      case ReplacementKind::kNmru: {
        int count = 0;
        int only = -1;
        for (int w = 0; w < ways_; ++w) {
          if (eligible(w)) {
            ++count;
            only = w;
          }
        }
        if (count == 1) {
          return only;
        }
        return kth_eligible(eligible, mru_);
      }
      case ReplacementKind::kTreePlru: {
        int node = 1;
        while (node < leaves_) {
          node = 2 * node + (plru_bits_[static_cast<std::size_t>(node)] ? 1 : 0);
        }
        const int way = node - leaves_;
        if (way < ways_ && eligible(way)) {
          return way;
        }
        for (int w = 0; w < ways_; ++w) {
          if (eligible(w)) {
            return w;
          }
        }
        return -1;
      }
    }
    return -1;
  }

 private:
  /// Uniform pick among eligible ways other than `skip`, ascending.
  template <typename Eligible>
  int kth_eligible(const Eligible& eligible, int skip) {
    int count = 0;
    for (int w = 0; w < ways_; ++w) {
      count += (eligible(w) && w != skip) ? 1 : 0;
    }
    if (count == 0) {
      return -1;
    }
    auto pick = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(count)));
    for (int w = 0; w < ways_; ++w) {
      if (eligible(w) && w != skip && pick-- == 0) {
        return w;
      }
    }
    return -1;
  }

  void move_to_front(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.insert(order_.begin(), way);
  }
  void move_to_back(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.push_back(way);
  }
  void plru_touch(int way) {
    for (int node = leaves_ + way; node > 1; node /= 2) {
      plru_bits_[static_cast<std::size_t>(node / 2)] = node % 2 == 0;
    }
  }

  ReplacementKind kind_;
  int ways_;
  std::vector<int> order_;
  Rng rng_;
  int mru_ = -1;
  int leaves_ = 1;
  std::vector<bool> plru_bits_;
};

// --- LRU exact behaviour ----------------------------------------------------

TEST(Lru, EvictsLeastRecentlyUsed) {
  ReplacementState lru(ReplacementKind::kLru, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(w);
  }
  lru.on_access(0);  // order (MRU->LRU): 0,3,2,1
  EXPECT_EQ(lru.select_victim(all_eligible(4)), 1);
  lru.on_access(1);  // 1,0,3,2
  EXPECT_EQ(lru.select_victim(all_eligible(4)), 2);
}

TEST(Lru, EligibilityMaskSkipsIneligible) {
  ReplacementState lru(ReplacementKind::kLru, 4);
  for (int w = 0; w < 4; ++w) {
    lru.on_insert(w);
  }
  // LRU order is 3,2,1,0 from back; 0 and 1 masked -> 2.
  EXPECT_EQ(lru.select_victim(0b1100), 2);
}

TEST(Lru, NoEligibleWayReturnsMinusOne) {
  ReplacementState lru(ReplacementKind::kLru, 2);
  lru.on_insert(0);
  lru.on_insert(1);
  EXPECT_EQ(lru.select_victim(0), -1);
}

TEST(Lru, InvalidatedWayBecomesPreferredVictim) {
  ReplacementState lru(ReplacementKind::kLru, 3);
  for (int w = 0; w < 3; ++w) {
    lru.on_insert(w);
  }
  lru.on_access(0);
  lru.on_invalidate(2);
  // 2 moved to LRU position.
  EXPECT_EQ(lru.select_victim(all_eligible(3)), 2);
}

TEST(Lru, MaskBeyondWaysAsserts) {
  ReplacementState lru(ReplacementKind::kLru, 2);
  EXPECT_THROW((void)lru.select_victim(0b100), AssertionError);
}

// --- FIFO exact behaviour ------------------------------------------------------

TEST(Fifo, EvictsInInsertionOrderIgnoringHits) {
  ReplacementState fifo(ReplacementKind::kFifo, 3);
  fifo.on_insert(1);
  fifo.on_insert(0);
  fifo.on_insert(2);
  fifo.on_access(1);  // hits do not refresh FIFO order
  EXPECT_EQ(fifo.select_victim(all_eligible(3)), 1);
  fifo.on_insert(1);  // re-inserted: now newest
  EXPECT_EQ(fifo.select_victim(all_eligible(3)), 0);
}

// --- NMRU ---------------------------------------------------------------------

TEST(Nmru, NeverPicksMostRecentlyUsedWhenAlternativesExist) {
  ReplacementState nmru(ReplacementKind::kNmru, 4, 99);
  for (int w = 0; w < 4; ++w) {
    nmru.on_insert(w);
  }
  nmru.on_access(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(nmru.select_victim(all_eligible(4)), 2);
  }
}

TEST(Nmru, PicksMruWhenOnlyEligible) {
  ReplacementState nmru(ReplacementKind::kNmru, 2, 1);
  nmru.on_insert(0);
  nmru.on_insert(1);
  EXPECT_EQ(nmru.select_victim(0b10), 1);
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
  ReplacementState policy(kind, ways, 42);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(w);
  }
  Rng rng(kind == ReplacementKind::kRandom ? 3u : 4u);
  for (int round = 0; round < 300; ++round) {
    std::uint64_t eligible = 0;
    for (int w = 0; w < ways; ++w) {
      eligible |= static_cast<std::uint64_t>(rng.next_bool(0.6)) << w;
    }
    const int victim = policy.select_victim(eligible);
    if (eligible == 0) {
      EXPECT_EQ(victim, -1);
    } else {
      ASSERT_GE(victim, 0);
      ASSERT_LT(victim, ways);
      EXPECT_NE((eligible >> victim) & 1, 0u);
    }
    // Random access pattern keeps internal state exercised.
    policy.on_access(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(ways))));
  }
}

TEST_P(PolicyInvariantTest, CopyIsIndependent) {
  const auto [kind, ways] = GetParam();
  ReplacementState policy(kind, ways, 7);
  for (int w = 0; w < ways; ++w) {
    policy.on_insert(w);
  }
  ReplacementState copy = policy;
  // Mutate the original; a copy of a deterministic policy must keep its
  // answer stable for LRU/FIFO/PLRU. A stochastic copy must replay the
  // original's stream from the copy point.
  const int before = copy.select_victim(all_eligible(ways));
  if (kind == ReplacementKind::kLru || kind == ReplacementKind::kFifo ||
      kind == ReplacementKind::kTreePlru) {
    policy.on_access(before);
    policy.on_insert(before);
    EXPECT_EQ(copy.select_victim(all_eligible(ways)), before);
  } else {
    EXPECT_EQ(policy.select_victim(all_eligible(ways)), before);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariantTest,
                         ::testing::Combine(kAllKinds,
                                            ::testing::Values(1, 2, 3, 4, 8,
                                                              16, 64)),
                         kind_ways_name);

// --- differential check against the reference model ------------------------------

class ReferenceModelTest : public ::testing::TestWithParam<KindAndWays> {};

// Policy level: any way may be touched, invalidated or offered, valid or
// not, so the order stamps must reproduce the lists' order exactly,
// including where an invalidated way sits.
TEST_P(ReferenceModelTest, ReplacementStateMatchesReference) {
  const auto [kind, ways] = GetParam();
  const std::uint64_t seed = 500 + static_cast<std::uint64_t>(ways);
  ReferencePolicy reference(kind, ways, seed);
  ReplacementState state(kind, ways, seed);
  Rng rng(seed * 31 + static_cast<std::uint64_t>(kind));
  for (int step = 0; step < 5000; ++step) {
    const auto way = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways)));
    switch (rng.next_below(4)) {
      case 0:
        reference.on_insert(way);
        state.on_insert(way);
        break;
      case 1:
        reference.on_access(way);
        state.on_access(way);
        break;
      case 2:
        reference.on_invalidate(way);
        state.on_invalidate(way);
        break;
      default: {
        const std::uint64_t mask = rng.next_u64() & all_eligible(ways);
        ASSERT_EQ(state.select_victim(mask), reference.select_victim(mask))
            << "step " << step << ", mask 0x" << std::hex << mask;
      }
    }
  }
}

// Set level: the same kind of sequence through CacheSet, which only ever
// offers valid ways, against the reference fed the same calls.
TEST_P(ReferenceModelTest, CacheSetMatchesReference) {
  const auto [kind, ways] = GetParam();
  const std::uint64_t seed = 900 + static_cast<std::uint64_t>(ways);
  ReferencePolicy reference(kind, ways, seed);
  CacheSet set(ways, kind, seed);
  Rng rng(seed * 17 + static_cast<std::uint64_t>(kind));
  LineAddr next_line = 1;
  for (int step = 0; step < 5000; ++step) {
    const auto way = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(ways)));
    const bool valid = set.way(way).valid();
    const std::uint64_t op = rng.next_below(10);
    if (op < 3) {  // fill: the way a cache would pick, as SetAssocCache does
      int target = set.find_free();
      if (target < 0) {
        target = set.select_victim_any();
        ASSERT_EQ(target, reference.select_victim(set.valid_mask()))
            << "step " << step;
        set.invalidate(target);
        reference.on_invalidate(target);
      }
      set.insert(next_line++, target, LineState::kClean);
      reference.on_insert(target);
    } else if (op < 5) {
      if (valid) {
        set.touch(way);
        reference.on_access(way);
      }
    } else if (op < 6) {
      if (valid) {
        set.invalidate(way);
        reference.on_invalidate(way);
      }
    } else {
      const std::uint64_t mask =
          (op == 9 ? ~std::uint64_t{0} : rng.next_u64()) & set.valid_mask();
      ASSERT_EQ(set.select_victim(mask), reference.select_victim(mask))
          << "step " << step << ", mask 0x" << std::hex << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReferenceModelTest,
                         ::testing::Combine(kAllKinds,
                                            ::testing::Values(1, 2, 3, 4, 8,
                                                              16, 64)),
                         kind_ways_name);

}  // namespace
}  // namespace psllc::mem
