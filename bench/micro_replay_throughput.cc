// micro_replay_throughput — wall-clock replay throughput (trace ops/sec)
// of the tight struct-of-arrays kernel vs the legacy core::System slot
// loop, over workload regimes chosen to span the kernel's win profile:
// solo replay on a multi-core system and think-time gaps (many idle slots
// the kernel skips outright), a cache-resident footprint (local fast
// path), and dense bus-saturated traffic (worst case, near parity).
//
// A second series times lane replay (kAuto, 4 threads) against the serial
// kernel on a dense cell whose lanes are independent.
//
// Every engine is timed as the fastest of N replays (best-of-N), alternating
// with the engine it is compared against so both see the same host load; a
// single descheduled replay cannot sink a gate. The result store stays
// byte-deterministic — wall-clock numbers are printed to the console only;
// the stored series carry the simulated metrics and the engine-agreement
// verdicts, and the claims record that (a) the engines agreed bit-for-bit
// everywhere, (b) the kernel replayed at >= 2x the legacy aggregate ops/sec
// and (c) lane replay ran >= 1.5x faster than the serial kernel.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "sim/replay.h"
#include "sim/workload.h"

namespace {

using namespace psllc;  // NOLINT

bool metrics_equal(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  return a.completed == b.completed && a.end_cycle == b.end_cycle &&
         a.makespan == b.makespan && a.observed_wcl == b.observed_wcl &&
         a.analytical_wcl == b.analytical_wcl &&
         a.llc_requests == b.llc_requests &&
         a.per_core_finish == b.per_core_finish &&
         a.per_core_l1_hits == b.per_core_l1_hits &&
         a.per_core_l2_hits == b.per_core_l2_hits &&
         a.per_core_misses == b.per_core_misses &&
         a.llc_stats.hit_presentations == b.llc_stats.hit_presentations &&
         a.llc_stats.blocked_presentations ==
             b.llc_stats.blocked_presentations &&
         a.llc_stats.fills == b.llc_stats.fills &&
         a.llc_stats.evictions_started == b.llc_stats.evictions_started &&
         a.llc_stats.immediate_frees == b.llc_stats.immediate_frees &&
         a.llc_stats.voluntary_writebacks ==
             b.llc_stats.voluntary_writebacks &&
         a.llc_stats.freeing_writebacks == b.llc_stats.freeing_writebacks &&
         a.llc_stats.steals == b.llc_stats.steals &&
         a.llc_stats.shared_write_flags == b.llc_stats.shared_write_flags &&
         a.memory.reads == b.memory.reads &&
         a.memory.writes == b.memory.writes &&
         a.memory.max_latency == b.memory.max_latency &&
         a.dram_reads == b.dram_reads && a.dram_writes == b.dram_writes;
}

struct EngineRun {
  sim::RunMetrics metrics;  ///< from the warmup replay
  double seconds = 0;       ///< wall time of the fastest timed replay
};

/// Replays `a` and `b` once each untimed (warmup + verdict capture), then
/// `reps` more times alternately, keeping each one's fastest replay.
std::pair<EngineRun, EngineRun> race(const sim::ReplayRequest& a,
                                     const sim::ReplayRequest& b, int reps) {
  EngineRun runs[2];
  const sim::ReplayRequest* requests[2] = {&a, &b};
  for (int i = 0; i < 2; ++i) {
    runs[i].metrics = sim::replay(*requests[i]).metrics;
  }
  for (int r = 0; r < reps; ++r) {
    for (int i = 0; i < 2; ++i) {
      const auto start = std::chrono::steady_clock::now();
      (void)sim::replay(*requests[i]);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (r == 0 || seconds < runs[i].seconds) {
        runs[i].seconds = seconds;
      }
    }
  }
  return {runs[0], runs[1]};
}

int run(bench::BenchContext& ctx) {
  bench::print_header(
      "Replay kernel throughput: SoA kernel vs legacy slot loop",
      "repo evaluation; kernel contract in src/sim/kernel.h");

  const int accesses = ctx.pick(60000, 12000);
  const int reps = ctx.pick(5, 2);
  // Lane replay's replays are short and need four idle hardware threads at
  // once, so its best-of-N draws more samples.
  const int lane_reps = 16;

  struct Workload {
    const char* name = "";
    const char* notation = "";  ///< LLC partition notation (4 active cores)
    int cores = 0;              ///< traces generated; the system has 4 cores
    std::int64_t range_bytes = 0;
    double write_fraction = 0;
    Cycle gap = 0;
  };
  // Periodic safety-critical tasks spend most bus slots idle: activation
  // gaps of hundreds of slot widths between accesses (tens of us at
  // realistic clocks), a solo criticality level on a multi-core system, a
  // cache-resident working set. Those are the regimes the kernel's exact
  // slot-skip targets; dense keeps the claim honest at the bus-saturated
  // end where slot-skipping buys nothing. Gaps are sized so every run
  // finishes inside the default 2e9-cycle horizon at the full profile.
  const Workload workloads[] = {
      {"solo_periodic", "SS(1,4,4)", 1, 32768, 0.25, 20000},
      {"periodic", "SS(1,4,4)", 4, 32768, 0.25, 24000},
      {"resident_gap", "P(32,4)", 4, 2048, 0.25, 4000},
      {"dense", "SS(1,4,4)", 4, 65536, 0.5, 0},
  };

  results::BenchResult res(ctx.make_meta(
      "micro_replay_throughput",
      "Replay kernel throughput: SoA kernel vs legacy slot loop",
      "repo evaluation; kernel contract in src/sim/kernel.h"));
  res.meta().set_param("accesses", std::to_string(accesses));
  res.meta().set_param("reps", std::to_string(reps));
  res.meta().set_param("lane_reps", std::to_string(lane_reps));
  results::Series& series = res.add_series(
      "replay_cells",
      {{"workload", results::ColumnType::kText, results::ColumnKind::kExact,
        ""},
       {"ops", results::ColumnType::kInt, results::ColumnKind::kExact,
        "ops"},
       {"llc_requests", results::ColumnType::kInt,
        results::ColumnKind::kExact, "requests"},
       {"makespan", results::ColumnType::kInt, results::ColumnKind::kExact,
        "cycles"},
       {"engines_match", results::ColumnType::kInt,
        results::ColumnKind::kExact, "bool"}});

  bool all_match = true;
  double kernel_seconds = 0;
  double legacy_seconds = 0;
  for (const Workload& workload : workloads) {
    sim::RandomWorkloadOptions options;
    options.range_bytes = workload.range_bytes;
    options.accesses = accesses;
    options.write_fraction = workload.write_fraction;
    options.gap = workload.gap;
    const std::vector<core::Trace> traces = sim::make_disjoint_random_workload(
        workload.cores, options, 0x7e9);
    const core::ExperimentSetup setup =
        core::make_paper_setup(workload.notation, 4);
    sim::ReplayRequest kernel_request;
    kernel_request.setup = &setup;
    kernel_request.workload.per_core = &traces;
    kernel_request.engine = sim::ReplayEngine::kKernel;
    sim::ReplayRequest legacy_request = kernel_request;
    legacy_request.engine = sim::ReplayEngine::kLegacy;

    const auto [kernel, legacy] = race(kernel_request, legacy_request, reps);
    const bool match = metrics_equal(kernel.metrics, legacy.metrics);
    all_match = all_match && match;
    kernel_seconds += kernel.seconds;
    legacy_seconds += legacy.seconds;

    const std::int64_t ops =
        static_cast<std::int64_t>(workload.cores) * accesses;
    const double kernel_rate = kernel.seconds > 0 ? ops / kernel.seconds : 0;
    const double legacy_rate = legacy.seconds > 0 ? ops / legacy.seconds : 0;
    std::printf("%-10s %9.2f Mops/s kernel | %9.2f Mops/s legacy | %5.2fx%s\n",
                workload.name, kernel_rate / 1e6, legacy_rate / 1e6,
                kernel_rate > 0 && legacy_rate > 0
                    ? legacy.seconds / kernel.seconds
                    : 0.0,
                match ? "" : "  METRICS MISMATCH");

    series.add_row({results::Value::of_text(workload.name),
                    results::Value::of_int(ops),
                    results::Value::of_int(kernel.metrics.llc_requests),
                    results::Value::of_int(
                        static_cast<std::int64_t>(kernel.metrics.makespan)),
                    results::Value::of_int(match ? 1 : 0)});
  }

  const double speedup =
      kernel_seconds > 0 ? legacy_seconds / kernel_seconds : 0;
  std::printf(
      "aggregate: %.2fx kernel over legacy (%.3fs vs %.3fs wall, best of "
      "%d per workload)\n",
      speedup, kernel_seconds, legacy_seconds, reps);

  // --- lane replay regime -------------------------------------------------
  // Dense cell with independent lanes (private set-disjoint partitions,
  // disjoint per-lane data, fixed-latency DRAM, static program): kAuto at
  // 4 threads replays the four lanes in isolation and must beat the serial
  // kernel by >= 1.5x. Wall-clock goes to the console only; the stored row
  // carries the simulated metrics and the lane count, all deterministic.
  results::Series& parallel_series = res.add_series(
      "parallel_replay",
      {{"workload", results::ColumnType::kText, results::ColumnKind::kExact,
        ""},
       {"ops", results::ColumnType::kInt, results::ColumnKind::kExact,
        "ops"},
       {"llc_requests", results::ColumnType::kInt,
        results::ColumnKind::kExact, "requests"},
       {"makespan", results::ColumnType::kInt, results::ColumnKind::kExact,
        "cycles"},
       {"segments", results::ColumnType::kInt, results::ColumnKind::kExact,
        "segments"},
       {"engines_match", results::ColumnType::kInt,
        results::ColumnKind::kExact, "bool"}});
  {
    sim::RandomWorkloadOptions options;
    options.range_bytes = 65536;
    options.accesses = accesses;
    options.write_fraction = 0.4;
    const std::vector<core::Trace> traces =
        sim::make_disjoint_random_workload(4, options, 0x7e9);
    const core::ExperimentSetup setup = core::make_paper_setup("P(8,4)", 4);
    sim::ReplayRequest serial_request;
    serial_request.setup = &setup;
    serial_request.workload.per_core = &traces;
    serial_request.engine = sim::ReplayEngine::kKernel;
    sim::ReplayRequest lane_request = serial_request;
    lane_request.engine = sim::ReplayEngine::kAuto;
    lane_request.options.cell_threads = 4;

    const auto [serial, parallel] =
        race(serial_request, lane_request, lane_reps);
    const bool match = metrics_equal(parallel.metrics, serial.metrics);
    const double parallel_speedup =
        parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0;
    // The speedup gate needs 4 hardware threads and an uninstrumented
    // build to mean anything (sanitizer interceptors serialize enough to
    // drown the parallelism); otherwise the claim records the (vacuous)
    // pass and the console line says why. The correctness claims stay
    // unconditional.
    bool instrumented = false;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    instrumented = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    instrumented = true;
#endif
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    const bool measurable = hw >= 4 && !instrumented;
    std::printf(
        "parallel_dense: %.2fx lane replay over serial kernel at 4 threads "
        "(%.3fs vs %.3fs wall, best of %d, %lld lanes)%s%s\n",
        parallel_speedup, parallel.seconds, serial.seconds, lane_reps,
        static_cast<long long>(parallel.metrics.parallel_segments),
        measurable ? ""
                   : "  [speedup gate skipped: < 4 hardware threads or "
                     "sanitizer build]",
        match ? "" : "  METRICS MISMATCH");

    const std::int64_t ops = static_cast<std::int64_t>(4) * accesses;
    parallel_series.add_row(
        {results::Value::of_text("parallel_dense"),
         results::Value::of_int(ops),
         results::Value::of_int(parallel.metrics.llc_requests),
         results::Value::of_int(
             static_cast<std::int64_t>(parallel.metrics.makespan)),
         results::Value::of_int(parallel.metrics.parallel_segments),
         results::Value::of_int(match ? 1 : 0)});
    // Four lanes must have replayed in isolation: a silent fall-back to the
    // serial kernel would match trivially.
    res.add_claim("parallel_matches_serial",
                  match && parallel.metrics.parallel_segments == 4);
    res.add_claim("parallel_speedup_1_5x",
                  !measurable || parallel_speedup >= 1.5);
  }

  res.add_claim("kernel_matches_legacy", all_match);
  res.add_claim("kernel_speedup_2x", speedup >= 2.0);
  return bench::finish_bench(ctx, res);
}

}  // namespace

PSLLC_REGISTER_BENCH(micro_replay_throughput, run)
