// Tests for the partitioned inclusive LLC: partitions, directory, set
// sequencer, and the PartitionedLlc request/write-back protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/rng.h"
#include "core/system_config.h"
#include "llc/llc.h"

namespace psllc::llc {
namespace {

// --- PartitionSpec / PartitionMap -------------------------------------------

TEST(PartitionSpec, OverlapDetection) {
  const PartitionSpec a{0, 4, 0, 2};
  const PartitionSpec b{4, 4, 0, 2};   // disjoint sets
  const PartitionSpec c{0, 4, 2, 2};   // disjoint ways
  const PartitionSpec d{2, 4, 1, 2};   // overlaps a
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.overlaps(d));
  EXPECT_TRUE(d.overlaps(a));
}

TEST(PartitionSpec, MapSetIsModuloWithinRectangle) {
  const PartitionSpec spec{8, 4, 0, 2};
  EXPECT_EQ(spec.map_set(0), 8);
  EXPECT_EQ(spec.map_set(3), 11);
  EXPECT_EQ(spec.map_set(4), 8);
  EXPECT_EQ(spec.capacity_lines(), 8);
}

TEST(PartitionSpec, ValidatesAgainstGeometry) {
  const mem::CacheGeometry geometry{32, 16, 64};
  EXPECT_NO_THROW((PartitionSpec{0, 32, 0, 16}).validate(geometry));
  EXPECT_THROW((PartitionSpec{0, 33, 0, 16}).validate(geometry), ConfigError);
  EXPECT_THROW((PartitionSpec{0, 32, 15, 2}).validate(geometry), ConfigError);
  EXPECT_THROW((PartitionSpec{0, 0, 0, 1}).validate(geometry), ConfigError);
}

TEST(PartitionMap, RejectsOverlapAndDoubleMembership) {
  const mem::CacheGeometry geometry{32, 16, 64};
  PartitionMap map(geometry);
  map.add_partition(PartitionSpec{0, 4, 0, 4}, {CoreId{0}});
  EXPECT_THROW(map.add_partition(PartitionSpec{2, 4, 2, 4}, {CoreId{1}}),
               ConfigError);
  EXPECT_THROW(map.add_partition(PartitionSpec{8, 4, 0, 4}, {CoreId{0}}),
               ConfigError);
  EXPECT_THROW(
      map.add_partition(PartitionSpec{8, 4, 0, 4}, {CoreId{1}, CoreId{1}}),
      ConfigError);
}

TEST(PartitionMap, LookupAndSharerCounts) {
  const mem::CacheGeometry geometry{32, 16, 64};
  PartitionMap map(geometry);
  const int shared = map.add_partition(PartitionSpec{0, 4, 0, 4},
                                       {CoreId{0}, CoreId{1}});
  const int own = map.add_partition(PartitionSpec{4, 4, 0, 4}, {CoreId{2}});
  EXPECT_EQ(map.partition_of(CoreId{0}), shared);
  EXPECT_EQ(map.partition_of(CoreId{1}), shared);
  EXPECT_EQ(map.partition_of(CoreId{2}), own);
  EXPECT_EQ(map.partition_of(CoreId{3}), -1);
  EXPECT_EQ(map.sharer_count_of(CoreId{0}), 2);
  EXPECT_EQ(map.sharer_count_of(CoreId{2}), 1);
  EXPECT_THROW(map.validate_covers_cores(4), ConfigError);
  EXPECT_NO_THROW(map.validate_covers_cores(3));
}

TEST(PartitionBuilders, PaperNotationShapes) {
  const mem::CacheGeometry geometry{32, 16, 64};
  // P(8,2) x 4 cores: tiled across sets.
  const PartitionMap p = make_private_partitions(geometry, 4, 8, 2);
  EXPECT_EQ(p.num_partitions(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(p.sharer_count_of(CoreId{c}), 1);
  }
  EXPECT_EQ(p.spec(0).first_set, 0);
  EXPECT_EQ(p.spec(1).first_set, 8);
  EXPECT_EQ(p.spec(3).first_set, 24);
  // P(1,2) x 4: distinct sets, same ways.
  const PartitionMap tiny = make_private_partitions(geometry, 4, 1, 2);
  EXPECT_EQ(tiny.spec(2).first_set, 2);
  EXPECT_EQ(tiny.spec(2).first_way, 0);
  // SS(32,4,2).
  const PartitionMap shared = make_shared_partition(
      geometry, {CoreId{0}, CoreId{1}}, 32, 4);
  EXPECT_EQ(shared.num_partitions(), 1);
  EXPECT_EQ(shared.sharer_count_of(CoreId{1}), 2);
  // Too many cores to tile: P(32,16) x 2 does not fit.
  EXPECT_THROW(make_private_partitions(geometry, 2, 32, 16), ConfigError);
}

// --- InclusiveDirectory --------------------------------------------------------

TEST(Directory, AddRemoveSharers) {
  InclusiveDirectory directory;
  directory.add_sharer(0x1, CoreId{0});
  directory.add_sharer(0x1, CoreId{2});
  EXPECT_EQ(directory.sharer_count(0x1), 2);
  EXPECT_TRUE(directory.is_shared_by(0x1, CoreId{2}));
  EXPECT_FALSE(directory.is_shared_by(0x1, CoreId{1}));
  EXPECT_TRUE(directory.remove_sharer(0x1, CoreId{0}));
  EXPECT_FALSE(directory.remove_sharer(0x1, CoreId{0}));
  EXPECT_EQ(directory.sharer_count(0x1), 1);
  directory.clear_line(0x1);
  EXPECT_EQ(directory.sharer_count(0x1), 0);
  EXPECT_EQ(directory.tracked_lines(), 0);
}

TEST(Directory, DuplicateAddAsserts) {
  InclusiveDirectory directory;
  directory.add_sharer(0x1, CoreId{0});
  EXPECT_THROW(directory.add_sharer(0x1, CoreId{0}), AssertionError);
}

TEST(Directory, SharersAscendAndMaskMatches) {
  InclusiveDirectory directory;
  directory.add_sharer(0x7, CoreId{3});
  directory.add_sharer(0x7, CoreId{0});
  directory.add_sharer(0x7, CoreId{63});
  EXPECT_EQ(directory.sharers(0x7),
            (std::vector<CoreId>{CoreId{0}, CoreId{3}, CoreId{63}}));
  EXPECT_EQ(directory.sharer_mask(0x7), (std::uint64_t{1} << 63) | 0b1001);
  EXPECT_THROW(directory.add_sharer(0x7, CoreId{64}), AssertionError);
}

TEST(Directory, TrackingMoreThanCapacityAsserts) {
  InclusiveDirectory directory(2);
  directory.add_sharer(0x1, CoreId{0});
  directory.add_sharer(0x2, CoreId{0});
  directory.add_sharer(0x2, CoreId{1});  // same line: no new slot
  EXPECT_THROW(directory.add_sharer(0x3, CoreId{0}), AssertionError);
}

TEST(Directory, AbsorbRejectsOverlap) {
  InclusiveDirectory a(4);
  InclusiveDirectory b(4);
  a.add_sharer(0x1, CoreId{0});
  b.add_sharer(0x1, CoreId{1});
  EXPECT_THROW(a.absorb(b), AssertionError);
}

// --- CoreMask ------------------------------------------------------------------

std::vector<CoreId> cores_of(CoreMask mask) {
  std::vector<CoreId> cores;
  for (const CoreId core : mask) {
    cores.push_back(core);
  }
  return cores;
}

TEST(CoreMask, EmptyMaskHasNoCores) {
  const CoreMask mask;
  EXPECT_TRUE(mask.empty());
  EXPECT_EQ(mask.size(), 0u);
  EXPECT_TRUE(mask.begin() == mask.end());
  EXPECT_EQ(mask.bits(), 0u);
  EXPECT_TRUE(cores_of(mask).empty());
}

TEST(CoreMask, IteratesAscendingIncludingCore63) {
  const CoreMask mask((std::uint64_t{1} << 63) | (std::uint64_t{1} << 40) |
                      0b101);
  EXPECT_FALSE(mask.empty());
  EXPECT_EQ(mask.size(), 4u);
  EXPECT_EQ(cores_of(mask), (std::vector<CoreId>{CoreId{0}, CoreId{2},
                                                 CoreId{40}, CoreId{63}}));
  EXPECT_EQ(cores_of(CoreMask(~std::uint64_t{0})).size(), 64u);
  EXPECT_EQ(cores_of(CoreMask(~std::uint64_t{0})).back(), CoreId{63});
}

// Differential check against the directory's sharers() list: same cores,
// same (ascending) order, and size() is the popcount.
TEST(CoreMask, MatchesDirectorySharersForRandomMasks) {
  Rng rng(0xc03e);
  std::vector<std::uint64_t> masks{0, 1, std::uint64_t{1} << 63,
                                   ~std::uint64_t{0}};
  for (int i = 0; i < 500; ++i) {
    // Vary the density: sparse, uniform and dense masks.
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    masks.push_back(i % 3 == 0 ? a & b : i % 3 == 1 ? a : a | b);
  }
  for (const std::uint64_t bits : masks) {
    SCOPED_TRACE("mask " + std::to_string(bits));
    InclusiveDirectory directory(4);
    const LineAddr line = 0x40;
    for (int c = 0; c < InclusiveDirectory::kMaxCores; ++c) {
      if (((bits >> c) & 1) != 0) {
        directory.add_sharer(line, CoreId{c});
      }
    }
    const CoreMask mask(directory.sharer_mask(line));
    ASSERT_EQ(mask.bits(), bits);
    ASSERT_EQ(cores_of(mask), directory.sharers(line));
    ASSERT_EQ(mask.size(),
              static_cast<std::size_t>(std::popcount(bits)));
    ASSERT_EQ(static_cast<int>(mask.size()), directory.sharer_count(line));
    ASSERT_EQ(mask.empty(), bits == 0);
  }
}

using DirectoryModel = std::map<LineAddr, std::set<CoreId>>;

void expect_matches(const InclusiveDirectory& directory,
                    const DirectoryModel& model,
                    const std::vector<LineAddr>& pool) {
  for (const LineAddr line : pool) {
    const auto it = model.find(line);
    const std::set<CoreId> want =
        it == model.end() ? std::set<CoreId>{} : it->second;
    ASSERT_EQ(directory.sharers(line),
              std::vector<CoreId>(want.begin(), want.end()))
        << "line 0x" << std::hex << line;
    ASSERT_EQ(directory.sharer_count(line), static_cast<int>(want.size()));
  }
  ASSERT_EQ(directory.tracked_lines(), static_cast<int>(model.size()));
  DirectoryModel seen;
  directory.for_each_line([&](LineAddr line, std::uint64_t mask) {
    for (int c = 0; c < InclusiveDirectory::kMaxCores; ++c) {
      if (((mask >> c) & 1) != 0) {
        seen[line].insert(CoreId{c});
      }
    }
  });
  ASSERT_EQ(seen, model);
}

// Differential test against an ordered map of sets. Small tables kept near
// their line limit and a pool of lines three times that limit make probe
// runs long, wrap past the end of the table, and force backward shifts on
// almost every deletion.
TEST(Directory, MatchesOrderedModelUnderRandomOps) {
  for (const int max_lines : {1, 2, 3, 8, 32}) {
    SCOPED_TRACE("max_lines " + std::to_string(max_lines));
    InclusiveDirectory directory(max_lines);
    DirectoryModel model;
    std::vector<LineAddr> pool;
    for (int i = 0; i < 3 * max_lines; ++i) {
      pool.push_back(static_cast<LineAddr>(i) * 32 + 5);  // one LLC set
    }
    Rng rng(static_cast<std::uint64_t>(max_lines) * 7919);
    for (int step = 0; step < 4000; ++step) {
      const LineAddr line = pool[rng.next_below(pool.size())];
      const CoreId core{static_cast<int>(rng.next_below(6))};
      const std::uint64_t op = rng.next_below(10);
      if (op < 5) {
        const bool room = model.count(line) != 0 ||
                          static_cast<int>(model.size()) < max_lines;
        if (room && model[line].insert(core).second) {
          directory.add_sharer(line, core);
        }
      } else if (op < 9) {
        auto it = model.find(line);
        const bool present = it != model.end() && it->second.erase(core) != 0;
        if (it != model.end() && it->second.empty()) {
          model.erase(it);
        }
        ASSERT_EQ(directory.remove_sharer(line, core), present);
      } else {
        directory.clear_line(line);
        model.erase(line);
      }
      ASSERT_EQ(directory.is_shared_by(line, core),
                model.count(line) != 0 && model[line].count(core) != 0);
      expect_matches(directory, model, pool);
    }
  }
}

TEST(Directory, AbsorbMatchesModelUnion) {
  InclusiveDirectory merged(16);
  InclusiveDirectory lane(16);
  DirectoryModel model;
  std::vector<LineAddr> pool;
  for (LineAddr i = 0; i < 16; ++i) {
    pool.push_back(i * 64);
    // Even lines stay in `merged`, odd ones come from `lane`.
    InclusiveDirectory& target = i % 2 == 0 ? merged : lane;
    for (int c = 0; c <= static_cast<int>(i % 3); ++c) {
      target.add_sharer(i * 64, CoreId{c});
      model[i * 64].insert(CoreId{c});
    }
  }
  merged.absorb(lane);
  expect_matches(merged, model, pool);
  // Deleting after the merge keeps every probe run intact.
  for (LineAddr i = 0; i < 16; i += 3) {
    merged.clear_line(i * 64);
    model.erase(i * 64);
  }
  expect_matches(merged, model, pool);
}

// --- SetSequencer ----------------------------------------------------------------

TEST(SetSequencer, FifoOrderPerSet) {
  SetSequencer seq(4, 4);
  const SetKey key{0, 5};
  seq.enqueue(key, CoreId{2});
  seq.enqueue(key, CoreId{0});
  seq.enqueue(key, CoreId{3});
  EXPECT_TRUE(seq.is_head(key, CoreId{2}));
  EXPECT_FALSE(seq.is_head(key, CoreId{0}));
  EXPECT_EQ(seq.position(key, CoreId{3}), 2);
  EXPECT_EQ(seq.queue_length(key), 3);
  seq.dequeue_head(key, CoreId{2});
  EXPECT_TRUE(seq.is_head(key, CoreId{0}));
}

TEST(SetSequencer, IndependentQueuesPerSetKey) {
  SetSequencer seq(4, 4);
  const SetKey a{0, 1};
  const SetKey b{0, 2};
  const SetKey c{1, 1};  // same physical set, different partition
  seq.enqueue(a, CoreId{0});
  seq.enqueue(b, CoreId{1});
  seq.enqueue(c, CoreId{2});
  EXPECT_EQ(seq.active_queues(), 3);
  EXPECT_TRUE(seq.is_head(a, CoreId{0}));
  EXPECT_TRUE(seq.is_head(b, CoreId{1}));
  EXPECT_TRUE(seq.is_head(c, CoreId{2}));
}

TEST(SetSequencer, QueueReleasedWhenEmpty) {
  SetSequencer seq(2, 2);
  const SetKey a{0, 1};
  seq.enqueue(a, CoreId{0});
  seq.dequeue_head(a, CoreId{0});
  EXPECT_EQ(seq.active_queues(), 0);
  EXPECT_FALSE(seq.has_queue(a));
  // The released queue is reusable for other sets.
  seq.enqueue(SetKey{0, 2}, CoreId{1});
  seq.enqueue(SetKey{0, 3}, CoreId{0});
  EXPECT_EQ(seq.active_queues(), 2);
}

TEST(SetSequencer, RemoveFromMiddle) {
  SetSequencer seq(2, 4);
  const SetKey key{0, 0};
  seq.enqueue(key, CoreId{0});
  seq.enqueue(key, CoreId{1});
  seq.enqueue(key, CoreId{2});
  seq.remove(key, CoreId{1});
  EXPECT_EQ(seq.queue_length(key), 2);
  EXPECT_TRUE(seq.is_head(key, CoreId{0}));
  EXPECT_EQ(seq.position(key, CoreId{2}), 1);
}

TEST(SetSequencer, HardwareCapacityAsserts) {
  SetSequencer seq(1, 2);
  seq.enqueue(SetKey{0, 0}, CoreId{0});
  // Second distinct set: QLT full.
  EXPECT_THROW(seq.enqueue(SetKey{0, 1}, CoreId{1}), AssertionError);
  // Queue depth full.
  seq.enqueue(SetKey{0, 0}, CoreId{1});
  EXPECT_THROW(seq.enqueue(SetKey{0, 0}, CoreId{2}), AssertionError);
  // Double enqueue of the same core.
  EXPECT_THROW(seq.enqueue(SetKey{0, 0}, CoreId{0}), AssertionError);
  // Dequeue of a non-head core.
  EXPECT_THROW(seq.dequeue_head(SetKey{0, 0}, CoreId{1}), AssertionError);
}

TEST(SetSequencer, CoreWaitsInAtMostOneQueue) {
  SetSequencer seq(4, 4);
  const SetKey a{0, 1};
  const SetKey b{1, 1};  // same physical set, another partition
  seq.enqueue(a, CoreId{2});
  EXPECT_THROW(seq.enqueue(b, CoreId{2}), AssertionError);
  EXPECT_THROW(seq.enqueue(SetKey{0, 2}, CoreId{2}), AssertionError);
  // The rejected enqueues left no trace.
  EXPECT_FALSE(seq.has_queue(b));
  EXPECT_FALSE(seq.is_queued(b, CoreId{2}));
  EXPECT_EQ(seq.active_queues(), 1);
  EXPECT_TRUE(seq.is_head(a, CoreId{2}));
  // Once it leaves, the core may wait elsewhere.
  seq.dequeue_head(a, CoreId{2});
  seq.enqueue(b, CoreId{2});
  EXPECT_TRUE(seq.is_head(b, CoreId{2}));
  EXPECT_FALSE(seq.is_queued(a, CoreId{2}));
}

/// Checks every SetSequencer query against a map of per-set FIFO queues.
void expect_sequencer_matches(
    const SetSequencer& seq, const std::map<SetKey, std::deque<CoreId>>& model,
    const std::vector<SetKey>& keys, int cores) {
  int live = 0;
  std::vector<std::pair<SetKey, std::vector<CoreId>>> canonical;
  for (const auto& [key, queue] : model) {
    if (!queue.empty()) {
      ++live;
      canonical.emplace_back(key,
                             std::vector<CoreId>(queue.begin(), queue.end()));
    }
  }
  EXPECT_EQ(seq.active_queues(), live);
  EXPECT_EQ(seq.canonical(), canonical);
  for (const SetKey& key : keys) {
    const auto it = model.find(key);
    const std::deque<CoreId> empty;
    const std::deque<CoreId>& queue = it == model.end() ? empty : it->second;
    EXPECT_EQ(seq.has_queue(key), !queue.empty());
    EXPECT_EQ(seq.queue_length(key), static_cast<int>(queue.size()));
    for (int c = 0; c < cores; ++c) {
      const CoreId core{c};
      int pos = -1;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i] == core) {
          pos = static_cast<int>(i);
        }
      }
      EXPECT_EQ(seq.position(key, core), pos);
      EXPECT_EQ(seq.is_queued(key, core), pos >= 0);
      EXPECT_EQ(seq.is_head(key, core), pos == 0);
    }
  }
}

TEST(SetSequencer, MatchesReferenceModelUnderRandomOps) {
  // Colliding keys: the same physical set under several partitions and the
  // same partition over several sets. Six cores over five keys keep the
  // QLT busy and the queues several deep.
  const std::vector<SetKey> keys = {
      SetKey{0, 0}, SetKey{0, 1}, SetKey{1, 0}, SetKey{1, 1}, SetKey{2, 7}};
  constexpr int kCores = 6;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SetSequencer seq(kCores, kCores);
    std::map<SetKey, std::deque<CoreId>> model;
    Rng rng(seed);
    auto waiting_key = [&](CoreId core) -> const SetKey* {
      for (const auto& [key, queue] : model) {
        for (const CoreId c : queue) {
          if (c == core) {
            return &key;
          }
        }
      }
      return nullptr;
    };
    for (int step = 0; step < 3000; ++step) {
      const CoreId core{static_cast<int>(rng.next_below(kCores))};
      const SetKey* current = waiting_key(core);
      const std::uint64_t op = rng.next_below(100);
      if (op < 45) {
        if (current == nullptr) {
          const SetKey key = keys[rng.next_below(keys.size())];
          seq.enqueue(key, core);
          model[key].push_back(core);
        }
      } else if (op < 75) {
        // Serve the head of a random live queue.
        const SetKey key = keys[rng.next_below(keys.size())];
        auto& queue = model[key];
        if (!queue.empty()) {
          seq.dequeue_head(key, queue.front());
          queue.pop_front();
        }
      } else if (op < 99) {
        if (current != nullptr) {
          const SetKey key = *current;
          seq.remove(key, core);
          auto& queue = model[key];
          queue.erase(std::find(queue.begin(), queue.end(), core));
        }
      } else {
        seq.clear();
        model.clear();
      }
      expect_sequencer_matches(seq, model, keys, kCores);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }
}

// --- PartitionedLlc ---------------------------------------------------------------

struct LlcHarness {
  LlcConfig config;
  mem::FixedLatencyBackend dram;
  PartitionedLlc llc;

  LlcHarness(ContentionMode mode, int sets, int ways, int sharers,
             LlcConfig base = LlcConfig{})
      : config(base),
        dram(mem::DramConfig{}),
        llc(config, make_map(config, sets, ways, sharers), mode, 4, dram) {}

  static PartitionMap make_map(const LlcConfig& config, int sets, int ways,
                               int sharers) {
    std::vector<CoreId> cores;
    for (int c = 0; c < sharers; ++c) {
      cores.emplace_back(c);
    }
    return make_shared_partition(config.geometry, cores, sets, ways);
  }
};

TEST(PartitionedLlc, MissFillsAndHits) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  const auto miss = h.llc.handle_request(CoreId{0}, 0x10, 0);
  EXPECT_EQ(miss.status, RequestOutcome::Status::kFilled);
  EXPECT_TRUE(h.llc.directory().is_shared_by(0x10, CoreId{0}));
  const auto hit = h.llc.handle_request(CoreId{0}, 0x10, 50);
  EXPECT_EQ(hit.status, RequestOutcome::Status::kHit);
  EXPECT_EQ(h.llc.stats().fills, 1);
  EXPECT_EQ(h.llc.stats().hit_presentations, 1);
}

TEST(PartitionedLlc, FullSetWithOwnedVictimBlocksAndBackInvalidates) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  h.llc.preload(0x3, {CoreId{1}}, false);
  const auto blocked = h.llc.handle_request(CoreId{0}, 0x5, 0);
  EXPECT_EQ(blocked.status, RequestOutcome::Status::kBlocked);
  ASSERT_TRUE(blocked.back_invalidation.has_value());
  EXPECT_EQ(blocked.back_invalidation->line, 0x1u);  // LRU victim
  ASSERT_EQ(blocked.back_invalidation->owners.size(), 1u);
  EXPECT_EQ(*blocked.back_invalidation->owners.begin(), CoreId{1});
  EXPECT_TRUE(h.llc.has_pending_request(CoreId{0}));
  // Retry before the write-back: still blocked, no *new* eviction (supply
  // covers demand).
  const auto retry = h.llc.handle_request(CoreId{0}, 0x5, 200);
  EXPECT_EQ(retry.status, RequestOutcome::Status::kBlocked);
  EXPECT_FALSE(retry.back_invalidation.has_value());
  // Freeing write-back arrives; the retry now fills.
  const auto wb = h.llc.handle_writeback(CoreId{1}, 0x1, false, true, 250);
  EXPECT_TRUE(wb.freed_entry);
  const auto filled = h.llc.handle_request(CoreId{0}, 0x5, 400);
  EXPECT_EQ(filled.status, RequestOutcome::Status::kFilled);
  EXPECT_FALSE(h.llc.has_pending_request(CoreId{0}));
  h.llc.check_invariants();
}

TEST(PartitionedLlc, UnownedVictimFreesWithinTheSlot) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 2);
  h.llc.preload(0x1, {}, false);  // no private copies
  h.llc.preload(0x3, {}, true);   // dirty, unowned
  const auto outcome = h.llc.handle_request(CoreId{0}, 0x5, 0);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kFilled)
      << "an unowned victim must not cost extra slots";
  EXPECT_EQ(h.llc.stats().immediate_frees, 1);
}

TEST(PartitionedLlc, SequencerEnforcesArrivalOrder) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  // c0 then c1 block on the same set.
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);
  (void)h.llc.handle_request(CoreId{1}, 0x7, 50);
  EXPECT_TRUE(h.llc.sequencer().is_head(h.llc.key_for(CoreId{0}, 0x5),
                                        CoreId{0}));
  // The victim's write-back frees an entry; c1 retries first but is not at
  // the head -> still blocked.
  (void)h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100);
  const auto c1_retry = h.llc.handle_request(CoreId{1}, 0x7, 150);
  EXPECT_EQ(c1_retry.status, RequestOutcome::Status::kBlocked);
  // c0 (head) takes it.
  const auto c0_retry = h.llc.handle_request(CoreId{0}, 0x5, 200);
  EXPECT_EQ(c0_retry.status, RequestOutcome::Status::kFilled);
  // Now c1 is head; the second eviction (triggered at c1's first blocked
  // presentation) eventually frees the other way.
  (void)h.llc.handle_writeback(CoreId{2}, 0x3, false, true, 250);
  const auto c1_fill = h.llc.handle_request(CoreId{1}, 0x7, 300);
  EXPECT_EQ(c1_fill.status, RequestOutcome::Status::kFilled);
  h.llc.check_invariants();
}

// A queued core whose line another waiter fetched completes by a hit while
// not at the head; it must leave the queue (check_invariants() requires
// every queued core to have a pending request under that key).
TEST(PartitionedLlc, SequencerWaiterServedByHitLeavesQueue) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{0}}, false);
  h.llc.preload(0x3, {CoreId{1}}, false);
  EXPECT_EQ(h.llc.handle_request(CoreId{0}, 0x5, 0).status,
            RequestOutcome::Status::kBlocked);  // evicts 0x1
  EXPECT_EQ(h.llc.handle_request(CoreId{1}, 0x7, 50).status,
            RequestOutcome::Status::kBlocked);  // evicts 0x3
  EXPECT_EQ(h.llc.handle_request(CoreId{2}, 0x5, 100).status,
            RequestOutcome::Status::kBlocked);
  h.llc.check_invariants();
  (void)h.llc.handle_writeback(CoreId{0}, 0x1, false, true, 150);
  EXPECT_EQ(h.llc.handle_request(CoreId{0}, 0x5, 200).status,
            RequestOutcome::Status::kFilled);
  // Queue is now [c1, c2]; c2 hits on the line c0 fetched.
  const SetKey key = h.llc.key_for(CoreId{2}, 0x5);
  EXPECT_EQ(h.llc.handle_request(CoreId{2}, 0x5, 250).status,
            RequestOutcome::Status::kHit);
  EXPECT_FALSE(h.llc.sequencer().is_queued(key, CoreId{2}));
  EXPECT_EQ(h.llc.sequencer().queue_length(key), 1);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, BestEffortAllowsStealAndCountsIt) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);   // older waiter
  (void)h.llc.handle_request(CoreId{1}, 0x7, 50);  // younger waiter
  (void)h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100);
  const auto steal = h.llc.handle_request(CoreId{1}, 0x7, 150);
  EXPECT_EQ(steal.status, RequestOutcome::Status::kFilled);
  EXPECT_EQ(h.llc.stats().steals, 1);
}

TEST(PartitionedLlc, VoluntaryWritebackMergesDirtyData) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  (void)h.llc.handle_request(CoreId{0}, 0x10, 0);
  const auto wb = h.llc.handle_writeback(CoreId{0}, 0x10, true, false, 100);
  EXPECT_FALSE(wb.freed_entry);
  const int way = h.llc.find_way(CoreId{0}, 0x10);
  ASSERT_GE(way, 0);
  const auto entry = h.llc.entry(h.llc.key_for(CoreId{0}, 0x10).physical_set,
                                 way);
  EXPECT_TRUE(entry.dirty);
  EXPECT_TRUE(entry.sharers.empty());
  h.llc.check_invariants();
}

TEST(PartitionedLlc, MultiSharerBackInvalidationNeedsAllAcks) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{1}, CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{1}}, false);
  const auto blocked = h.llc.handle_request(CoreId{0}, 0x5, 0);
  ASSERT_TRUE(blocked.back_invalidation.has_value());
  EXPECT_EQ(blocked.back_invalidation->owners.size(), 2u);
  EXPECT_EQ(cores_of(blocked.back_invalidation->owners),
            (std::vector<CoreId>{CoreId{1}, CoreId{2}}));
  EXPECT_FALSE(
      h.llc.handle_writeback(CoreId{1}, 0x1, false, true, 50).freed_entry);
  EXPECT_TRUE(
      h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 100).freed_entry);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, PendingLineExcludedFromHits) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 3);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  // c0's miss selects 0x1 as victim (pending invalidation).
  (void)h.llc.handle_request(CoreId{0}, 0x5, 0);
  // c1 requests the very line being evicted: must be treated as a miss.
  const auto outcome = h.llc.handle_request(CoreId{1}, 0x1, 50);
  EXPECT_EQ(outcome.status, RequestOutcome::Status::kBlocked);
  h.llc.check_invariants();
}

// A free way does not let a request allocate a second copy of a line that
// is still resident, pending invalidation, in the same set: the request
// waits for the eviction to finish.
TEST(PartitionedLlc, PendingLineBlocksAllocationIntoAFreeWay) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 2, 4);
  h.llc.preload(0x1, {CoreId{2}}, false);
  h.llc.preload(0x3, {CoreId{2}}, false);
  // c0 and c1 each start one eviction: 0x1, then 0x3.
  ASSERT_TRUE(h.llc.handle_request(CoreId{0}, 0x5, 0).back_invalidation);
  ASSERT_TRUE(h.llc.handle_request(CoreId{1}, 0x7, 10).back_invalidation);
  // 0x3's owner answers first, so its way is free while 0x1 is pending.
  EXPECT_TRUE(h.llc.handle_writeback(CoreId{2}, 0x3, false, true, 20)
                  .freed_entry);
  ASSERT_EQ(h.llc.free_ways(CoreId{3}, 0x1), 1);
  const auto blocked = h.llc.handle_request(CoreId{3}, 0x1, 30);
  EXPECT_EQ(blocked.status, RequestOutcome::Status::kBlocked);
  EXPECT_EQ(h.llc.free_ways(CoreId{3}, 0x1), 1);
  h.llc.check_invariants();
  // Once 0x1 has left the cache, the retry fills.
  EXPECT_TRUE(h.llc.handle_writeback(CoreId{2}, 0x1, false, true, 40)
                  .freed_entry);
  EXPECT_EQ(h.llc.handle_request(CoreId{3}, 0x1, 50).status,
            RequestOutcome::Status::kFilled);
  h.llc.check_invariants();
}

// Two partitions share physical set 0 with disjoint way ranges: A = ways
// 0-1 for {c0, c1}, B = ways 2-3 for {c2, c3}. Demand and steals are per
// (partition, set), so A's waiter must neither inflate B's demand (an extra
// eviction) nor count as the older waiter B's fill steals from.
TEST(PartitionedLlc, PendingRequestCountsOnlyInItsOwnPartition) {
  LlcConfig config;
  mem::FixedLatencyBackend dram(mem::DramConfig{});
  PartitionMap map(config.geometry);
  map.add_partition(PartitionSpec{0, 1, 0, 2}, {CoreId{0}, CoreId{1}});
  map.add_partition(PartitionSpec{0, 1, 2, 2}, {CoreId{2}, CoreId{3}});
  PartitionedLlc llc(config, std::move(map), ContentionMode::kBestEffort, 4,
                     dram);
  llc.preload(0x1, {CoreId{0}}, false);
  llc.preload(0x3, {CoreId{0}}, false);
  llc.preload(0x5, {CoreId{2}}, false);
  llc.preload(0x7, {CoreId{2}}, false);
  ASSERT_EQ(llc.key_for(CoreId{1}, 0x9).physical_set,
            llc.key_for(CoreId{3}, 0xb).physical_set);

  // c1 blocks in A (the older waiter) and starts evicting 0x1.
  const auto a_blocked = llc.handle_request(CoreId{1}, 0x9, 0);
  EXPECT_EQ(a_blocked.status, RequestOutcome::Status::kBlocked);
  ASSERT_TRUE(a_blocked.back_invalidation.has_value());
  EXPECT_EQ(a_blocked.back_invalidation->line, 0x1u);
  // c3 blocks in B: B's demand is c3 alone, so one eviction (0x5).
  const auto b_blocked = llc.handle_request(CoreId{3}, 0xb, 10);
  EXPECT_EQ(b_blocked.status, RequestOutcome::Status::kBlocked);
  ASSERT_TRUE(b_blocked.back_invalidation.has_value());
  EXPECT_EQ(b_blocked.back_invalidation->line, 0x5u);
  llc.check_invariants();
  // B's supply (0x5 leaving) covers B's demand: no second eviction, which
  // counting c1 would have started.
  const auto b_retry = llc.handle_request(CoreId{3}, 0xb, 20);
  EXPECT_EQ(b_retry.status, RequestOutcome::Status::kBlocked);
  EXPECT_FALSE(b_retry.back_invalidation.has_value());
  // 0x5 leaves; c3 fills past c1, which waits in A, not B: no steal.
  EXPECT_TRUE(llc.handle_writeback(CoreId{2}, 0x5, false, true, 30)
                  .freed_entry);
  EXPECT_EQ(llc.handle_request(CoreId{3}, 0xb, 40).status,
            RequestOutcome::Status::kFilled);
  EXPECT_EQ(llc.find_way(CoreId{3}, 0xb), 2);
  EXPECT_TRUE(llc.has_pending_request(CoreId{1}));
  llc.check_invariants();
  // A's demand still counts A's own waiters: c0 joins c1 against one
  // leaving way and starts the second A eviction (0x3).
  const auto a_second = llc.handle_request(CoreId{0}, 0xd, 50);
  EXPECT_EQ(a_second.status, RequestOutcome::Status::kBlocked);
  ASSERT_TRUE(a_second.back_invalidation.has_value());
  EXPECT_EQ(a_second.back_invalidation->line, 0x3u);
  llc.check_invariants();

  const LlcStats& stats = llc.stats();
  EXPECT_EQ(stats.hit_presentations, 0);
  EXPECT_EQ(stats.blocked_presentations, 4);
  EXPECT_EQ(stats.fills, 1);
  EXPECT_EQ(stats.evictions_started, 3);
  EXPECT_EQ(stats.immediate_frees, 0);
  EXPECT_EQ(stats.freeing_writebacks, 1);
  EXPECT_EQ(stats.steals, 0);
}

// A mode switch moves c0's partition from sets 0-1 to sets 4-5 while c0
// waits: its pending request, route and per-set pending-core bit must all
// follow it to the new set, and the drain must finish before it fills.
TEST(PartitionedLlc, PendingRequestFollowsItsCoreAcrossATransition) {
  LlcConfig config;
  mem::FixedLatencyBackend dram(mem::DramConfig{});
  PartitionMap before(config.geometry);
  before.add_partition(PartitionSpec{0, 2, 0, 2}, {CoreId{0}});
  before.add_partition(PartitionSpec{2, 2, 0, 2}, {CoreId{1}});
  PartitionMap after(config.geometry);
  after.add_partition(PartitionSpec{4, 2, 0, 2}, {CoreId{0}});
  after.add_partition(PartitionSpec{2, 2, 0, 2}, {CoreId{1}});
  PartitionProgram program(std::move(before));
  program.add_mode(std::move(after), 100);
  PartitionedLlc llc(config, std::move(program), ContentionMode::kSetSequencer,
                     2, dram);
  llc.preload(0x0, {CoreId{0}}, false);
  llc.preload(0x2, {CoreId{0}}, false);
  const auto blocked = llc.handle_request(CoreId{0}, 0x4, 0);
  ASSERT_TRUE(blocked.back_invalidation.has_value());
  EXPECT_EQ(blocked.back_invalidation->line, 0x0u);
  EXPECT_EQ(llc.key_for(CoreId{0}, 0x4).physical_set, 0);

  // The switch drains both old lines: 0x0 keeps its in-flight eviction,
  // 0x2 gets a drain back-invalidation.
  std::vector<BackInvalidation> drain;
  llc.advance_transition(100, drain);
  ASSERT_EQ(drain.size(), 1u);
  EXPECT_EQ(drain[0].line, 0x2u);
  EXPECT_TRUE(llc.transition_active());
  EXPECT_EQ(llc.key_for(CoreId{0}, 0x4).physical_set, 4);
  llc.check_invariants();
  // The new ways stay frozen until the fence: the retry blocks.
  EXPECT_EQ(llc.handle_request(CoreId{0}, 0x4, 150).status,
            RequestOutcome::Status::kBlocked);
  llc.check_invariants();
  EXPECT_TRUE(llc.handle_writeback(CoreId{0}, 0x0, false, true, 160)
                  .freed_entry);
  EXPECT_TRUE(llc.handle_writeback(CoreId{0}, 0x2, false, true, 170)
                  .freed_entry);
  drain.clear();
  llc.advance_transition(200, drain);
  EXPECT_TRUE(drain.empty());
  EXPECT_FALSE(llc.transition_active());
  llc.check_invariants();
  EXPECT_EQ(llc.handle_request(CoreId{0}, 0x4, 250).status,
            RequestOutcome::Status::kFilled);
  EXPECT_EQ(llc.find_way(CoreId{0}, 0x4), 0);
  llc.check_invariants();
  EXPECT_EQ(llc.stats().repartitions, 1);
  EXPECT_EQ(llc.stats().drain_back_invals, 1);
  EXPECT_EQ(llc.stats().blocked_presentations, 2);
  EXPECT_EQ(llc.stats().fills, 1);
}

TEST(PartitionedLlc, SilentEvictionKeepsLineDropsSharer) {
  LlcHarness h(ContentionMode::kBestEffort, 4, 2, 2);
  (void)h.llc.handle_request(CoreId{0}, 0x10, 0);
  h.llc.notify_silent_eviction(CoreId{0}, 0x10);
  EXPECT_GE(h.llc.find_way(CoreId{0}, 0x10), 0);
  EXPECT_EQ(h.llc.directory().sharer_count(0x10), 0);
  EXPECT_THROW(h.llc.notify_silent_eviction(CoreId{0}, 0x10),
               AssertionError);
}

TEST(PartitionedLlc, RetryWithDifferentLineAsserts) {
  LlcHarness h(ContentionMode::kBestEffort, 1, 1, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x3, 0);
  EXPECT_THROW(h.llc.handle_request(CoreId{0}, 0x5, 50), AssertionError);
}

TEST(PartitionedLlc, DropPendingRequestCleansSequencer) {
  LlcHarness h(ContentionMode::kSetSequencer, 1, 1, 2);
  h.llc.preload(0x1, {CoreId{1}}, false);
  (void)h.llc.handle_request(CoreId{0}, 0x3, 0);
  EXPECT_TRUE(h.llc.has_pending_request(CoreId{0}));
  h.llc.drop_pending_request(CoreId{0});
  EXPECT_FALSE(h.llc.has_pending_request(CoreId{0}));
  EXPECT_EQ(h.llc.sequencer().active_queues(), 0);
  h.llc.check_invariants();
}

TEST(PartitionedLlc, RejectsMoreThan64WaysOrCores) {
  mem::FixedLatencyBackend dram(mem::DramConfig{});
  LlcConfig wide;
  wide.geometry = mem::CacheGeometry{4, 65, 64};
  EXPECT_THROW(wide.validate(), ConfigError);
  wide.geometry.num_ways = 64;
  EXPECT_NO_THROW(wide.validate());

  LlcConfig config;
  auto map_for = [&](int cores) {
    std::vector<CoreId> sharers;
    for (int c = 0; c < cores; ++c) {
      sharers.emplace_back(c);
    }
    return make_shared_partition(config.geometry, sharers, 32, 16);
  };
  EXPECT_THROW(PartitionedLlc(config, map_for(65),
                              ContentionMode::kSetSequencer, 65, dram),
               ConfigError);
  EXPECT_NO_THROW(PartitionedLlc(config, map_for(64),
                                 ContentionMode::kSetSequencer, 64, dram));

  core::SystemConfig system;
  system.num_cores = 65;
  EXPECT_THROW(system.validate(), ConfigError);
}

TEST(PartitionedLlc, RejectsMismatchedPartitionGeometry) {
  LlcConfig config;
  mem::DramConfig dram_config;
  mem::FixedLatencyBackend dram(dram_config);
  PartitionMap map(mem::CacheGeometry{16, 16, 64});  // wrong set count
  map.add_partition(PartitionSpec{0, 1, 0, 1}, {CoreId{0}});
  EXPECT_THROW(
      PartitionedLlc(config, std::move(map), ContentionMode::kBestEffort, 1,
                     dram),
      ConfigError);
}

}  // namespace
}  // namespace psllc::llc
