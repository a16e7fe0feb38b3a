// Differential battery for lane replay (sim/kernel.h): across memory
// backends x partition notations x repartition programs x cell_threads
// counts, kAuto replay with cell_threads > 1 must produce RunMetrics
// bit-identical to the serial kernel (and hence to the legacy core::System
// loop) in every field except parallel_segments. Cells with independent
// lanes take lane replay; every other cell must stay on the serial kernel,
// which one negative cell per independence condition pins down — a wrong
// eligibility verdict would give wrong metrics, not just slower ones. Also
// covers truncated and mid-drain horizons, idle cores, shared workloads,
// degenerate horizons, and the legacy fallback for requests that need
// legacy-only observability.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "llc/partition.h"
#include "mem/memory_backend.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace psllc::sim {
namespace {

/// Full-field equality, lane replay vs serial — everything except
/// parallel_segments (zero for the serial paths by definition) must be
/// bit-identical.
void expect_metrics_equal(const RunMetrics& parallel, const RunMetrics& serial,
                          const std::string& label) {
  EXPECT_EQ(parallel.completed, serial.completed) << label;
  EXPECT_EQ(parallel.end_cycle, serial.end_cycle) << label;
  EXPECT_EQ(parallel.makespan, serial.makespan) << label;
  EXPECT_EQ(parallel.observed_wcl, serial.observed_wcl) << label;
  EXPECT_EQ(parallel.analytical_wcl, serial.analytical_wcl) << label;
  EXPECT_EQ(parallel.observed_transient_wcl, serial.observed_transient_wcl)
      << label;
  EXPECT_EQ(parallel.transient_analytical_wcl,
            serial.transient_analytical_wcl)
      << label;
  EXPECT_EQ(parallel.llc_requests, serial.llc_requests) << label;
  EXPECT_EQ(parallel.per_core_finish, serial.per_core_finish) << label;
  EXPECT_EQ(parallel.per_core_l1_hits, serial.per_core_l1_hits) << label;
  EXPECT_EQ(parallel.per_core_l2_hits, serial.per_core_l2_hits) << label;
  EXPECT_EQ(parallel.per_core_misses, serial.per_core_misses) << label;
  EXPECT_EQ(parallel.llc_stats.hit_presentations,
            serial.llc_stats.hit_presentations)
      << label;
  EXPECT_EQ(parallel.llc_stats.blocked_presentations,
            serial.llc_stats.blocked_presentations)
      << label;
  EXPECT_EQ(parallel.llc_stats.fills, serial.llc_stats.fills) << label;
  EXPECT_EQ(parallel.llc_stats.evictions_started,
            serial.llc_stats.evictions_started)
      << label;
  EXPECT_EQ(parallel.llc_stats.immediate_frees,
            serial.llc_stats.immediate_frees)
      << label;
  EXPECT_EQ(parallel.llc_stats.voluntary_writebacks,
            serial.llc_stats.voluntary_writebacks)
      << label;
  EXPECT_EQ(parallel.llc_stats.freeing_writebacks,
            serial.llc_stats.freeing_writebacks)
      << label;
  EXPECT_EQ(parallel.llc_stats.steals, serial.llc_stats.steals) << label;
  EXPECT_EQ(parallel.llc_stats.shared_write_flags,
            serial.llc_stats.shared_write_flags)
      << label;
  EXPECT_EQ(parallel.llc_stats.repartitions, serial.llc_stats.repartitions)
      << label;
  EXPECT_EQ(parallel.llc_stats.drain_writebacks,
            serial.llc_stats.drain_writebacks)
      << label;
  EXPECT_EQ(parallel.llc_stats.drain_back_invals,
            serial.llc_stats.drain_back_invals)
      << label;
  EXPECT_EQ(parallel.memory.reads, serial.memory.reads) << label;
  EXPECT_EQ(parallel.memory.writes, serial.memory.writes) << label;
  EXPECT_EQ(parallel.memory.row_hits, serial.memory.row_hits) << label;
  EXPECT_EQ(parallel.memory.row_misses, serial.memory.row_misses) << label;
  EXPECT_EQ(parallel.memory.queued_writes, serial.memory.queued_writes)
      << label;
  EXPECT_EQ(parallel.memory.drained_writes, serial.memory.drained_writes)
      << label;
  EXPECT_EQ(parallel.memory.write_stalls, serial.memory.write_stalls)
      << label;
  EXPECT_EQ(parallel.memory.max_queue_depth, serial.memory.max_queue_depth)
      << label;
  EXPECT_EQ(parallel.memory.max_latency, serial.memory.max_latency) << label;
  EXPECT_EQ(parallel.dram_reads, serial.dram_reads) << label;
  EXPECT_EQ(parallel.dram_writes, serial.dram_writes) << label;
}


/// Lanes a per-core workload replays in isolation when it takes lane
/// replay: every non-empty trace.
std::int64_t non_empty_lanes(const std::vector<core::Trace>& traces) {
  std::int64_t lanes = 0;
  for (const core::Trace& trace : traces) {
    lanes += trace.empty() ? 0 : 1;
  }
  return lanes;
}

/// kAuto with an explicit cell_threads: lane replay on independent lanes,
/// the serial kernel otherwise — never the legacy loop, and never a partial
/// lane split.
RunMetrics run_auto(const core::ExperimentSetup& setup,
                    const std::vector<core::Trace>& traces, int threads,
                    const std::string& label,
                    Cycle max_cycles = 2'000'000'000) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = max_cycles;
  request.options.cell_threads = threads;
  const ReplayResult result = replay(request);
  EXPECT_TRUE(result.used_kernel) << label;
  const std::int64_t segments = result.metrics.parallel_segments;
  if (threads == 1) {
    EXPECT_EQ(segments, 0) << label;
  } else {
    EXPECT_TRUE(segments == 0 || segments == non_empty_lanes(traces))
        << label << ": " << segments << " lanes";
  }
  return result.metrics;
}

RunMetrics run_serial_kernel(const core::ExperimentSetup& setup,
                             const std::vector<core::Trace>& traces,
                             const std::string& label,
                             Cycle max_cycles = 2'000'000'000) {
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.options.max_cycles = max_cycles;
  request.options.cell_threads = 4;  // ignored: kKernel is always serial
  request.engine = ReplayEngine::kKernel;
  const ReplayResult result = replay(request);
  EXPECT_TRUE(result.used_kernel) << label;
  EXPECT_EQ(result.metrics.parallel_segments, 0) << label;
  return result.metrics;
}

constexpr int kThreadCounts[] = {1, 2, 3, 8};

/// Three-mode program (initial -> way-bounced -> restored), the same shape
/// tests/test_repartition.cc drills: two full drain/flush transitions.
core::ExperimentSetup make_dynamic_setup(const char* notation, int cores,
                                         int way_bounce, int cadence_slots) {
  core::ExperimentSetup setup = core::make_paper_setup(notation, cores);
  const llc::PartitionMap initial = setup.partitions();
  const Cycle epoch = Cycle(cadence_slots) * setup.config.slot_width;
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, way_bounce), epoch, {},
                   "bounce");
  program.add_mode(initial, 2 * epoch, {}, "restore");
  setup.program = std::move(program);
  return setup;
}

struct Shape {
  const char* name;
  std::int64_t range_bytes;
  int accesses;
  double write_fraction;
  Cycle gap;
};

constexpr Shape kShapes[] = {
    {"dense", 65536, 1500, 0.4, 0},
    {"resident", 2048, 1500, 0.25, 0},
    {"gappy", 32768, 800, 0.25, 9},
    {"writeheavy", 32768, 1200, 0.9, 0},
};

// Static programs: every backend, shared and private notations, every
// thread count — bit-identical to the serial kernel whichever path kAuto
// picks.
TEST(ParallelDifferential, MatchesSerialAcrossBackendsNotationsAndThreads) {
  const char* notations[] = {"SS(1,4,4)", "NSS(32,2,4)", "P(8,4)"};
  std::uint64_t seed = 4242;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const char* notation : notations) {
      const Shape& shape = kShapes[seed % std::size(kShapes)];
      ++seed;
      RandomWorkloadOptions workload;
      workload.range_bytes = shape.range_bytes;
      workload.accesses = shape.accesses;
      workload.write_fraction = shape.write_fraction;
      workload.gap = shape.gap;
      const std::vector<core::Trace> traces =
          make_disjoint_random_workload(4, workload, seed);
      core::ExperimentSetup setup = core::make_paper_setup(notation, 4);
      setup.config.dram = variant.config;
      setup.config.validate();
      const std::string base =
          variant.label + " " + notation + " " + shape.name;
      const RunMetrics serial = run_serial_kernel(setup, traces, base);
      EXPECT_TRUE(serial.completed) << base;
      for (const int threads : kThreadCounts) {
        const std::string label = base + " t" + std::to_string(threads);
        expect_metrics_equal(run_auto(setup, traces, threads, label), serial,
                             label);
      }
    }
  }
}

// Dynamic repartitioning couples lanes through drains: these cells stay
// serial and must match the serial kernel for every backend and thread
// count.
TEST(ParallelDifferential, MatchesSerialThroughRepartitions) {
  std::uint64_t seed = 77;
  for (const mem::BackendVariant& variant :
       mem::registered_backend_variants()) {
    for (const int cadence : {120, 400}) {
      ++seed;
      RandomWorkloadOptions workload;
      workload.range_bytes = 32768;
      workload.accesses = 1200;
      workload.write_fraction = 0.5;
      const std::vector<core::Trace> traces =
          make_disjoint_random_workload(4, workload, seed);
      core::ExperimentSetup setup =
          make_dynamic_setup("SS(32,2,4)", 4, 1, cadence);
      setup.config.dram = variant.config;
      setup.config.validate();
      const std::string base =
          variant.label + " dynamic cadence " + std::to_string(cadence);
      const RunMetrics serial = run_serial_kernel(setup, traces, base);
      for (const int threads : kThreadCounts) {
        const std::string label = base + " t" + std::to_string(threads);
        expect_metrics_equal(run_auto(setup, traces, threads, label), serial,
                             label);
      }
    }
  }
}

// Truncated horizons: the run ends incomplete at the horizon, on a shared
// cell and on an independent-lanes cell; and with a cadence chosen so the
// cut lands mid-drain.
TEST(ParallelDifferential, MatchesSerialOnTruncatedAndMidDrainHorizons) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = 4000;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 9001);

  for (const char* notation : {"SS(1,4,4)", "P(8,4)"}) {
    const core::ExperimentSetup setup = core::make_paper_setup(notation, 4);
    const std::string base = std::string("truncated ") + notation;
    const RunMetrics serial = run_serial_kernel(setup, traces, base, 20000);
    EXPECT_FALSE(serial.completed) << base;
    for (const int threads : kThreadCounts) {
      const std::string label = base + " t" + std::to_string(threads);
      expect_metrics_equal(run_auto(setup, traces, threads, label, 20000),
                           serial, label);
    }
  }

  // Horizon 450 slots into a transition triggered at slot 400: the replay
  // stops while the drain is still in flight.
  const core::ExperimentSetup dynamic =
      make_dynamic_setup("SS(32,2,4)", 4, 1, 400);
  const Cycle mid_drain = 450 * dynamic.config.slot_width;
  const RunMetrics serial_drain =
      run_serial_kernel(dynamic, traces, "mid-drain", mid_drain);
  for (const int threads : kThreadCounts) {
    const std::string label = "mid-drain t" + std::to_string(threads);
    expect_metrics_equal(run_auto(dynamic, traces, threads, label, mid_drain),
                         serial_drain, label);
  }
}

// Idle cores: fewer traces than cores plus an explicitly empty trace. On
// P(8,4) only the two non-empty lanes replay in isolation.
TEST(ParallelDifferential, MatchesSerialWithIdleCores) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1000;
  std::vector<core::Trace> traces =
      make_disjoint_random_workload(2, workload, 321);
  traces.push_back(core::Trace{});
  for (const char* notation : {"SS(1,4,4)", "P(8,4)"}) {
    const core::ExperimentSetup setup = core::make_paper_setup(notation, 4);
    const std::string base = std::string("idle ") + notation;
    const RunMetrics serial = run_serial_kernel(setup, traces, base);
    for (const int threads : kThreadCounts) {
      const std::string label = base + " t" + std::to_string(threads);
      expect_metrics_equal(run_auto(setup, traces, threads, label), serial,
                           label);
    }
  }
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  EXPECT_EQ(run_auto(setup, traces, 4, "idle lanes").parallel_segments, 2);
}

// Shared-trace workloads alias one op stream across every replica: the
// three engines agree and kAuto never splits lanes.
TEST(ParallelDifferential, MatchesSerialAndLegacyOnSharedWorkload) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 1200;
  workload.write_fraction = 0.5;
  const core::Trace trace = make_uniform_random_trace(0, workload, 777);
  const core::ExperimentSetup setup = core::make_paper_setup("NSS(1,4,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.shared = &trace;
  request.workload.replicas = 4;
  request.workload.window = Addr{1} << 20;

  request.engine = ReplayEngine::kKernel;
  const RunMetrics serial = replay(request).metrics;
  request.engine = ReplayEngine::kLegacy;
  const RunMetrics legacy = replay(request).metrics;
  expect_metrics_equal(serial, legacy, "shared serial vs legacy");

  request.engine = ReplayEngine::kAuto;
  for (const int threads : kThreadCounts) {
    request.options.cell_threads = threads;
    const std::string label = "shared t" + std::to_string(threads);
    const ReplayResult result = replay(request);
    EXPECT_TRUE(result.used_kernel) << label;
    EXPECT_EQ(result.metrics.parallel_segments, 0) << label;
    expect_metrics_equal(result.metrics, serial, label);
  }
}

// The independent-lanes regime (private set-disjoint partitions, disjoint
// per-lane data, fixed-latency DRAM, static program): every lane replays in
// isolation, in one wave or several, and the merged result is bit-identical
// to both serial engines. This is the regime the throughput bench gates a
// speedup on, so a silent fall-back to serial fails here.
TEST(ParallelDifferential, LaneReplayTakesIndependentCells) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = 3000;
  workload.write_fraction = 0.4;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 1234);
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  const RunMetrics serial = run_serial_kernel(setup, traces, "lanes");
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  request.engine = ReplayEngine::kLegacy;
  expect_metrics_equal(serial, replay(request).metrics, "lanes legacy");
  for (const int threads : {2, 3, 4, 8}) {
    const std::string label = "lanes t" + std::to_string(threads);
    const RunMetrics lanes = run_auto(setup, traces, threads, label);
    expect_metrics_equal(lanes, serial, label);
    EXPECT_EQ(lanes.parallel_segments, 4) << label;
  }
}

// --- one negative cell per independence condition ---------------------------
//
// Each cell starts from the independent P(8,4) cell above and breaks exactly
// one condition. kAuto at cell_threads = 4 must keep it on the serial kernel
// (parallel_segments == 0) and match the forced serial kernel.

/// The independent baseline workload: four disjoint dense traces.
std::vector<core::Trace> independent_traces() {
  RandomWorkloadOptions workload;
  workload.range_bytes = 32768;
  workload.accesses = 1200;
  workload.write_fraction = 0.4;
  return make_disjoint_random_workload(4, workload, 2024);
}

void expect_serial_cell(const core::ExperimentSetup& setup,
                        const std::vector<core::Trace>& traces,
                        const std::string& label) {
  const RunMetrics serial = run_serial_kernel(setup, traces, label);
  const RunMetrics automatic = run_auto(setup, traces, 4, label);
  EXPECT_EQ(automatic.parallel_segments, 0) << label;
  expect_metrics_equal(automatic, serial, label);
}

TEST(LaneIndependence, BaselineCellTakesLaneReplay) {
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  const std::vector<core::Trace> traces = independent_traces();
  const RunMetrics serial = run_serial_kernel(setup, traces, "baseline");
  const RunMetrics lanes = run_auto(setup, traces, 4, "baseline");
  EXPECT_EQ(lanes.parallel_segments, 4);
  expect_metrics_equal(lanes, serial, "baseline");
}

TEST(LaneIndependence, SharedWorkloadStaysSerial) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 32768;
  workload.accesses = 1200;
  workload.write_fraction = 0.4;
  const core::Trace trace = make_uniform_random_trace(0, workload, 2024);
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.shared = &trace;
  request.workload.replicas = 4;
  request.workload.window = Addr{1} << 20;  // replicas stay data-disjoint
  request.engine = ReplayEngine::kKernel;
  const RunMetrics serial = replay(request).metrics;
  request.engine = ReplayEngine::kAuto;
  request.options.cell_threads = 4;
  const ReplayResult result = replay(request);
  EXPECT_TRUE(result.used_kernel);
  EXPECT_EQ(result.metrics.parallel_segments, 0);
  expect_metrics_equal(result.metrics, serial, "shared workload");
}

TEST(LaneIndependence, TwoModeProgramStaysSerial) {
  // Bouncing every private rectangle by one way keeps each mode
  // single-sharer and set-disjoint; only the mode switch is new.
  core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  const llc::PartitionMap initial = setup.partitions();
  llc::PartitionProgram program(initial);
  program.add_mode(llc::make_way_bounced_map(initial, 1),
                   Cycle{300} * setup.config.slot_width, {}, "bounce");
  setup.program = std::move(program);
  expect_serial_cell(setup, independent_traces(), "two-mode program");
}

TEST(LaneIndependence, BankRowBackendStaysSerial) {
  core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  setup.config.dram.backend = mem::MemoryBackendKind::kBankRow;
  setup.config.validate();
  expect_serial_cell(setup, independent_traces(), "bank-row backend");
}

TEST(LaneIndependence, MultiSharerPartitionStaysSerial) {
  // SS(32,2,4): one partition, so trivially set-disjoint, with four
  // sharers.
  const core::ExperimentSetup setup = core::make_paper_setup("SS(32,2,4)", 4);
  expect_serial_cell(setup, independent_traces(), "multi-sharer partition");
}

TEST(LaneIndependence, SetOverlappingPartitionsStaySerial) {
  // Four single-sharer partitions over the same 8 sets, split by ways.
  core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  llc::PartitionMap map(setup.partitions().geometry());
  for (int c = 0; c < 4; ++c) {
    llc::PartitionSpec spec;
    spec.first_set = 0;
    spec.num_sets = 8;
    spec.first_way = 4 * c;
    spec.num_ways = 4;
    map.add_partition(spec, {CoreId{c}});
  }
  setup.program = llc::PartitionProgram(std::move(map));
  expect_serial_cell(setup, independent_traces(), "set-overlapping partitions");
}

TEST(LaneIndependence, OverlappingLineRangesStaySerial) {
  // Lane c touches only lines congruent to c mod 4, drawn from one common
  // range: the data stays disjoint (private partitions model no sharing)
  // but the per-lane line ranges interleave.
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 1200;
  workload.write_fraction = 0.4;
  std::vector<core::Trace> traces;
  for (int c = 0; c < 4; ++c) {
    core::Trace trace = make_uniform_random_trace(
        0, workload, 2024 + static_cast<std::uint64_t>(c));
    for (core::MemOp& op : trace) {
      op.addr = op.addr * 4 + static_cast<Addr>(c) * 64;
    }
    traces.push_back(std::move(trace));
  }
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  expect_serial_cell(setup, traces, "overlapping line ranges");
}

// --- engine selection --------------------------------------------------------

// kAuto takes lane replay exactly when the lanes are independent AND more
// than one thread is granted; a forced kKernel always replays serially.
TEST(ParallelEligibility, AutoRoutesOnThreadCount) {
  RandomWorkloadOptions workload;
  workload.range_bytes = 8192;
  workload.accesses = 600;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 88);
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
  ReplayRequest request;
  request.setup = &setup;
  request.workload.per_core = &traces;
  EXPECT_TRUE(kernel_eligible(request));

  request.options.cell_threads = 1;
  EXPECT_EQ(effective_cell_threads(request.options), 1);
  const ReplayResult serial = replay(request);
  EXPECT_TRUE(serial.used_kernel);
  EXPECT_EQ(serial.metrics.parallel_segments, 0);

  request.options.cell_threads = 4;
  EXPECT_EQ(effective_cell_threads(request.options), 4);
  const ReplayResult lanes = replay(request);
  EXPECT_TRUE(lanes.used_kernel);
  EXPECT_EQ(lanes.metrics.parallel_segments, 4);
  expect_metrics_equal(lanes.metrics, serial.metrics, "auto t4 vs t1");

  request.engine = ReplayEngine::kKernel;
  EXPECT_EQ(replay(request).metrics.parallel_segments, 0);
}

// Requests that need legacy-only observability route to the legacy loop
// under kAuto even when threads are granted and the lanes are independent.
TEST(ParallelEligibility, LegacyOnlyRequestsRouteToLegacy) {
  RandomWorkloadOptions workload;
  workload.accesses = 50;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(2, workload, 5);
  core::ExperimentSetup records = core::make_paper_setup("P(8,4)", 4);
  records.config.keep_request_records = true;
  ReplayRequest request;
  request.setup = &records;
  request.workload.per_core = &traces;
  request.options.cell_threads = 4;
  EXPECT_FALSE(kernel_eligible(request));
  ReplayResult result = replay(request);
  EXPECT_FALSE(result.used_kernel);
  EXPECT_EQ(result.metrics.parallel_segments, 0);

  core::ExperimentSetup plain = core::make_paper_setup("P(8,4)", 4);
  request.setup = &plain;
  const LogLevel saved = Logger::instance().level();
  Logger::instance().set_level(LogLevel::kDebug);
  EXPECT_FALSE(kernel_eligible(request));
  result = replay(request);
  Logger::instance().set_level(saved);
  EXPECT_FALSE(result.used_kernel);
  EXPECT_EQ(result.metrics.parallel_segments, 0);
  EXPECT_TRUE(kernel_eligible(request));
}

// Degenerate horizons on the lane path: a zero-cycle horizon replays
// nothing, and a 3-slot horizon at 8 threads still merges every lane.
TEST(ParallelEligibility, DegenerateHorizons) {
  RandomWorkloadOptions workload;
  workload.accesses = 200;
  const std::vector<core::Trace> traces =
      make_disjoint_random_workload(4, workload, 31);
  const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);

  const RunMetrics zero = run_auto(setup, traces, 8, "horizon 0", 0);
  EXPECT_FALSE(zero.completed);
  EXPECT_EQ(zero.parallel_segments, 4);
  expect_metrics_equal(zero, run_serial_kernel(setup, traces, "horizon 0", 0),
                       "horizon 0");

  const Cycle three_slots = 3 * setup.config.slot_width;
  const RunMetrics serial =
      run_serial_kernel(setup, traces, "3 slots", three_slots);
  const RunMetrics tiny = run_auto(setup, traces, 8, "3 slots t8", three_slots);
  EXPECT_EQ(tiny.parallel_segments, 4);
  expect_metrics_equal(tiny, serial, "3 slots");
}

}  // namespace
}  // namespace psllc::sim
