// Google-benchmark microbenchmarks for the hot data structures: cache
// lookup/fill, replacement victim selection, the set sequencer, and the
// pending write-back buffer.
#include <benchmark/benchmark.h>

#include "bus/pending_buffers.h"
#include "common/rng.h"
#include "llc/set_sequencer.h"
#include "mem/cache_set.h"
#include "mem/set_assoc_cache.h"

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
  mem::CacheSet set(16, kind, 7);
  for (int w = 0; w < 16; ++w) {
    set.insert(static_cast<LineAddr>(w), w, mem::LineState::kClean);
  }
  // Every other way, like an LLC partition with evictions in flight.
  const std::uint64_t eligible = 0x5555;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.select_victim(eligible));
  }
}
BENCHMARK(BM_VictimSelection)
    ->Arg(static_cast<int>(mem::ReplacementKind::kLru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kFifo))
    ->Arg(static_cast<int>(mem::ReplacementKind::kRandom))
    ->Arg(static_cast<int>(mem::ReplacementKind::kNmru))
    ->Arg(static_cast<int>(mem::ReplacementKind::kTreePlru));

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

}  // namespace

BENCHMARK_MAIN();
