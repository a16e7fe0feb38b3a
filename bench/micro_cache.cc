// Google-benchmark microbenchmarks for the hot data structures: cache
// lookup/fill, replacement victim selection, a private-hierarchy miss round
// trip, the set sequencer, the pending write-back buffer, and the LLC's
// three-slot eviction round trip.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "bus/pending_buffers.h"
#include "common/rng.h"
#include "llc/llc.h"
#include "llc/set_sequencer.h"
#include "mem/memory_backend.h"
#include "mem/private_cache.h"
#include "mem/set_assoc_cache.h"
#include "mem/set_store.h"

namespace {

using namespace psllc;  // NOLINT

void BM_CacheAccessHit(benchmark::State& state) {
  mem::SetAssocCache cache({32, 16, 64}, mem::ReplacementKind::kLru);
  for (LineAddr line = 0; line < 32 * 16; ++line) {
    cache.fill(line, false);
  }
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.next_below(32 * 16), false));
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheFillEvict(benchmark::State& state) {
  mem::SetAssocCache cache({32, 16, 64}, mem::ReplacementKind::kLru);
  LineAddr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.fill(line++, false));
  }
}
BENCHMARK(BM_CacheFillEvict);

void BM_VictimSelection(benchmark::State& state) {
  const auto kind = static_cast<mem::ReplacementKind>(state.range(0));
  mem::SetStore set(1, 16, kind, 7);
  for (int w = 0; w < 16; ++w) {
    set.insert(0, static_cast<LineAddr>(w), w, mem::LineState::kClean);
  }
  // Every other way, like an LLC partition with evictions in flight.
  const std::uint64_t eligible = 0x5555;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.select_victim(0, eligible));
  }
}
BENCHMARK(BM_VictimSelection)
    ->Arg(static_cast<int>(mem::ReplacementKind::kLru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kFifo))
    ->Arg(static_cast<int>(mem::ReplacementKind::kRandom))
    ->Arg(static_cast<int>(mem::ReplacementKind::kNmru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kTreePlru));

// One core's private hierarchy (the paper's L1I 4x2, L1D 4x4, L2 16x4) on
// the miss path a replay takes: a store misses both levels, the fill
// replaces an L2 victim that is purged from the L1s, and a
// back-invalidation removes the new line again (present and dirty). The
// victim is then fetched back into the freed way, so every round trip
// starts from a full L2 set. Data only, so L1I holds no lines.
void BM_PrivateHierarchyMissFill(benchmark::State& state) {
  const mem::PrivateCacheConfig config;
  mem::PrivateCacheHierarchy caches(config, 11);
  const auto sets = static_cast<LineAddr>(config.l2.num_sets);
  const auto ways = static_cast<LineAddr>(config.l2.num_ways);
  auto addr_of = [&](LineAddr line) {
    return static_cast<Addr>(line * static_cast<LineAddr>(
                                        config.l2.line_bytes));
  };
  // Fill L2 set 0 (lines that are multiples of the set count).
  LineAddr next = 0;
  for (; next < ways; ++next) {
    (void)caches.fill(addr_of(next * sets), AccessType::kRead, false);
  }
  for (auto _ : state) {
    const LineAddr line = next++ * sets;
    if (caches.access(addr_of(line), AccessType::kWrite) !=
        mem::HitLevel::kMiss) {
      state.SkipWithError("a fresh line hit");
      break;
    }
    const std::optional<mem::Evicted> victim =
        caches.fill(addr_of(line), AccessType::kWrite, true);
    if (!victim) {
      state.SkipWithError("a fill into a full L2 set evicted nothing");
      break;
    }
    const mem::ForcedEviction evicted = caches.force_evict(line);
    benchmark::DoNotOptimize(evicted);
    if (!evicted.was_present || !evicted.was_dirty) {
      state.SkipWithError("back-invalidation missed the dirty line");
      break;
    }
    const Addr back = addr_of(victim->line);
    if (caches.access(back, AccessType::kRead) != mem::HitLevel::kMiss ||
        caches.fill(back, AccessType::kRead, false).has_value()) {
      state.SkipWithError("the victim did not refill the freed way");
      break;
    }
  }
}
BENCHMARK(BM_PrivateHierarchyMissFill);

void BM_SetSequencerCycle(benchmark::State& state) {
  llc::SetSequencer sequencer(4, 4);
  const llc::SetKey key{0, 3};
  for (auto _ : state) {
    sequencer.enqueue(key, CoreId{0});
    sequencer.enqueue(key, CoreId{1});
    benchmark::DoNotOptimize(sequencer.is_head(key, CoreId{1}));
    sequencer.dequeue_head(key, CoreId{0});
    sequencer.dequeue_head(key, CoreId{1});
  }
}
BENCHMARK(BM_SetSequencerCycle);

// One contended set as the LLC sees it: four cores arrive in turn, every
// presentation asks is_queued/is_head (blocked retries), and the head is
// served and leaves.
void BM_SetSequencerPresentation(benchmark::State& state) {
  llc::SetSequencer sequencer(4, 4);
  const llc::SetKey key{1, 9};
  for (auto _ : state) {
    for (int c = 0; c < 4; ++c) {
      if (!sequencer.is_queued(key, CoreId{c})) {
        sequencer.enqueue(key, CoreId{c});
      }
    }
    for (int served = 0; served < 4; ++served) {
      for (int c = 0; c < 4; ++c) {
        benchmark::DoNotOptimize(sequencer.is_queued(key, CoreId{c}));
        benchmark::DoNotOptimize(sequencer.is_head(key, CoreId{c}));
      }
      sequencer.dequeue_head(key, CoreId{served});
    }
  }
}
BENCHMARK(BM_SetSequencerPresentation);

// has_writeback_for over a full 16-entry PWB whose head has wrapped past
// the end of the ring: one hit at the tail, one full-scan miss.
void BM_PendingWritebackScan(benchmark::State& state) {
  bus::PendingBuffers buffers(16);
  auto writeback = [](LineAddr line) {
    bus::BusMessage msg;
    msg.kind = bus::MessageKind::kWriteBack;
    msg.line = line;
    return msg;
  };
  LineAddr line = 0;
  for (; line < 16; ++line) {
    buffers.push_writeback(writeback(line));
  }
  for (int i = 0; i < 9; ++i) {
    (void)buffers.pop_writeback();
    buffers.push_writeback(writeback(line++));
  }
  const LineAddr tail = line - 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffers.has_writeback_for(tail));
    benchmark::DoNotOptimize(buffers.has_writeback_for(line));
  }
}
BENCHMARK(BM_PendingWritebackScan);

// Every LLC miss into a full shared partition, as in the paper's Figs. 2-4:
// the first presentation blocks and back-invalidates the victim's owner,
// the owner's freeing write-back frees the entry, and the retry fills. A
// 2-way partition shared by 4 cores under the set sequencer; the cores
// take turns, each with a fresh line of the same set, so the LRU victim is
// always owned by another core.
void BM_EvictionRoundTrip(benchmark::State& state) {
  const llc::LlcConfig config;
  mem::FixedLatencyBackend dram(mem::DramConfig{});
  constexpr int kCores = 4;
  constexpr int kSets = 32;
  const std::vector<CoreId> cores{CoreId{0}, CoreId{1}, CoreId{2}, CoreId{3}};
  llc::PartitionedLlc llc(
      config, llc::make_shared_partition(config.geometry, cores, kSets, 2),
      llc::ContentionMode::kSetSequencer, kCores, dram);
  // Multiples of the partition's set count all map to its first set.
  LineAddr next = 0;
  int core = 0;
  Cycle now = 0;
  for (; next < 2; ++next, core = (core + 1) % kCores) {
    (void)llc.handle_request(CoreId{core}, next * kSets, now);
  }
  for (auto _ : state) {
    const CoreId requester{core};
    const LineAddr line = next * kSets;
    const llc::RequestOutcome blocked =
        llc.handle_request(requester, line, now);
    benchmark::DoNotOptimize(blocked);
    if (!blocked.back_invalidation) {
      state.SkipWithError("presentation did not start an eviction");
      break;
    }
    const llc::BackInvalidation& binval = *blocked.back_invalidation;
    for (const CoreId owner : binval.owners) {
      benchmark::DoNotOptimize(llc.handle_writeback(
          owner, binval.line, /*carries_dirty_data=*/false,
          /*frees_entry=*/true, now + 50));
    }
    const llc::RequestOutcome filled =
        llc.handle_request(requester, line, now + 100);
    benchmark::DoNotOptimize(filled);
    if (filled.status != llc::RequestOutcome::Status::kFilled) {
      state.SkipWithError("retry after the freeing write-back did not fill");
      break;
    }
    ++next;
    core = (core + 1) % kCores;
    now += 150;
  }
}
BENCHMARK(BM_EvictionRoundTrip);

}  // namespace

BENCHMARK_MAIN();
