// The replay kernel's slot loop allocates nothing: every heap allocation of
// a sim::replay() call belongs to its set-up (kernel, caches, buffers) or to
// the metric fill, so doubling the horizon must not add a single one — not
// even across partition-mode transitions. Set-up itself does not grow with
// a cache's set count either.
//
// This suite is its own executable because it replaces the global
// operator new/delete with counting versions; it is only built when no
// sanitizer that owns the allocator (ASan, TSan) is on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/system_config.h"
#include "llc/partition.h"
#include "mem/private_cache.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace psllc::sim {
namespace {

struct CountedReplay {
  std::int64_t allocations = 0;
  ReplayResult result;
};

CountedReplay replay_counted(const core::ExperimentSetup& setup,
                             const std::vector<core::Trace>& traces,
                             Cycle max_cycles) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = max_cycles;
  request.options.cell_threads = 1;
  request.engine = ReplayEngine::kKernel;
  CountedReplay counted;
  const std::int64_t before = g_allocations.load();
  counted.result = replay(request);
  counted.allocations = g_allocations.load() - before;
  return counted;
}

/// Replays `notation` on 4 cores with disjoint 8 KiB random traces at
/// horizons H and 2H, both inside the run, and checks that the second
/// replay executes more requests but allocates exactly as often.
void expect_horizon_independent_allocations(const std::string& notation) {
  SCOPED_TRACE(notation);
  constexpr int kCores = 4;
  RandomWorkloadOptions options;
  options.range_bytes = 8192;
  options.accesses = 2000;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(kCores, options, 8);
  const core::ExperimentSetup setup =
      core::make_paper_setup(notation, kCores);

  const CountedReplay full =
      replay_counted(setup, traces, RunOptions{}.max_cycles);
  ASSERT_TRUE(full.result.used_kernel);
  ASSERT_TRUE(full.result.metrics.completed);
  const Cycle horizon = full.result.metrics.end_cycle / 4;
  ASSERT_GT(horizon, 0);

  const CountedReplay once = replay_counted(setup, traces, horizon);
  const CountedReplay twice = replay_counted(setup, traces, 2 * horizon);
  ASSERT_FALSE(once.result.metrics.completed);
  ASSERT_FALSE(twice.result.metrics.completed);
  ASSERT_GT(once.result.metrics.llc_stats.evictions_started, 0);
  // The longer replay really did more slot work ...
  EXPECT_GT(twice.result.metrics.llc_requests,
            once.result.metrics.llc_requests + 100);
  EXPECT_GT(twice.result.metrics.llc_stats.fills,
            once.result.metrics.llc_stats.fills);
  // ... yet allocated exactly as often: zero allocations per slot.
  EXPECT_EQ(twice.allocations, once.allocations);
  EXPECT_EQ(full.allocations, once.allocations);
}

// The Fig. 8c shared cell: the set sequencer, an eviction with a
// back-invalidation on almost every miss, freeing write-backs, DRAM.
TEST(AllocFree, SharedPartitionSlotLoopDoesNotAllocate) {
  expect_horizon_independent_allocations("SS(32,2,4)");
}

// The equal-capacity private baseline: per-core partitions, evictions of
// the core's own lines.
TEST(AllocFree, PrivatePartitionSlotLoopDoesNotAllocate) {
  expect_horizon_independent_allocations("P(8,2)");
}

// A 2-core SS(32,2,2) bounce/restore program: the partition moves two ways
// between H and 2H and moves back between 2H and completion. Each mode
// transition freezes ways, drains every resident line (write-backs and
// back-invalidations) and fences, and none of that may allocate either.
TEST(AllocFree, RepartitionSlotLoopDoesNotAllocate) {
  constexpr int kCores = 2;
  RandomWorkloadOptions options;
  options.range_bytes = 8192;
  options.accesses = 2000;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(kCores, options, 8);
  core::ExperimentSetup setup = core::make_paper_setup("SS(32,2,2)", kCores);
  const Cycle horizon =
      replay_counted(setup, traces, RunOptions{}.max_cycles)
          .result.metrics.end_cycle /
      4;
  ASSERT_GT(horizon, 0);
  const llc::PartitionMap initial = setup.partitions();
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, 2), horizon * 3 / 2, {},
                   "bounce");
  program.add_mode(initial, horizon * 5 / 2, {}, "restore");
  setup.program = std::move(program);

  const CountedReplay once = replay_counted(setup, traces, horizon);
  const CountedReplay twice = replay_counted(setup, traces, 2 * horizon);
  const CountedReplay full =
      replay_counted(setup, traces, RunOptions{}.max_cycles);
  ASSERT_TRUE(full.result.used_kernel);
  ASSERT_TRUE(full.result.metrics.completed);
  EXPECT_EQ(once.result.metrics.llc_stats.repartitions, 0);
  EXPECT_EQ(twice.result.metrics.llc_stats.repartitions, 1);
  EXPECT_EQ(full.result.metrics.llc_stats.repartitions, 2);
  // Both drains really moved lines out, through both of their paths.
  EXPECT_GT(twice.result.metrics.llc_stats.drain_back_invals, 0);
  EXPECT_GT(full.result.metrics.llc_stats.drain_back_invals,
            twice.result.metrics.llc_stats.drain_back_invals);
  EXPECT_GT(full.result.metrics.llc_stats.drain_writebacks, 0);
  EXPECT_EQ(twice.allocations, once.allocations);
  EXPECT_EQ(full.allocations, once.allocations);
}

// Each cache level keeps all of its sets in one flat store, so building a
// private hierarchy costs the same allocations whatever the L2 set count.
std::int64_t hierarchy_allocations(int l2_sets) {
  mem::PrivateCacheConfig config;
  config.l2.num_sets = l2_sets;
  const std::int64_t before = g_allocations.load();
  { const mem::PrivateCacheHierarchy caches(config, 7); }
  return g_allocations.load() - before;
}

TEST(AllocFree, PrivateHierarchyAllocationsIndependentOfSetCount) {
  const std::int64_t small = hierarchy_allocations(16);
  EXPECT_GT(small, 0);
  EXPECT_EQ(hierarchy_allocations(4096), small);
}

// The counter itself works, so a zero difference above means something.
// (The volatile sink keeps the compiler from eliding the allocations.)
std::vector<int>* volatile g_sink = nullptr;

TEST(AllocFree, CounterSeesAllocations) {
  const std::int64_t before = g_allocations.load();
  g_sink = new std::vector<int>(100, 1);
  const std::int64_t after = g_allocations.load();
  delete g_sink;
  g_sink = nullptr;
  EXPECT_EQ(after - before, 2);  // the vector object and its buffer
}

}  // namespace
}  // namespace psllc::sim
