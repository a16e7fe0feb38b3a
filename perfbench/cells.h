// The benchmark's replay cells: what each workload replays, how it is set
// up, the simulated statistics a replay is pinned to, and the correctness
// gate every timed replay must pass.
#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/system_config.h"
#include "sim/replay.h"
#include "spans.h"
#include "trace/mapped_trace.h"

namespace psllc::perfbench {

/// Workload seed used when --seed is not given; pinned in reference.txt.
inline constexpr std::uint64_t kDefaultSeed = 8;
/// Seed kept out of tuning, for confirming later claims; also pinned.
inline constexpr std::uint64_t kHeldOutSeed = 97;

enum class Size : std::uint8_t { kFull, kTiny };

[[nodiscard]] constexpr const char* to_string(Size size) {
  return size == Size::kFull ? "full" : "tiny";
}

struct CellSpec {
  const char* name = "";
  const char* notation = "";    ///< LLC partition, 4 active cores
  std::int64_t range_bytes = 0; ///< per-core footprint
  int accesses = 0;             ///< per core, full size
  double write_fraction = 0.25;
  Cycle gap = 0;                ///< think time between accesses
  int cell_threads = 1;         ///< explicit, so the environment cannot pick
  bool mapped = false;          ///< one .pslt trace replicated on every core
};

/// fig8_shared, fig8_private, periodic_mapped.
[[nodiscard]] const std::vector<CellSpec>& cell_specs();
[[nodiscard]] const CellSpec* find_cell(std::string_view name);

inline constexpr int kCores = 4;

/// A cell ready to replay. Heap-held: the replay request borrows pointers
/// into it.
struct Cell {
  CellSpec spec;
  core::ExperimentSetup setup;
  /// Per-core traces; for a mapped cell, the one trace that was written.
  std::vector<core::Trace> traces;
  std::optional<trace::MappedTrace> view;  ///< mapped cells only
  Cycle min_bound = 0;  ///< smallest per-core analytical WCL
  std::vector<std::int64_t> core_ops;   ///< ops each core replays
  std::int64_t ops = 0;                 ///< ops one replay covers
  Cycle max_cycles = 0;                 ///< replay horizon

  [[nodiscard]] sim::ReplayRequest request() const;
  /// The op stream core `c` replays (a mapped cell's replicas are shifted
  /// by c * range_bytes, as the replay applies them).
  [[nodiscard]] core::Trace core_stream(int c) const;
};

/// Generates the traces, builds the paper platform, writes and maps the
/// .pslt file (mapped cells) and runs the bound analysis, each step inside
/// its own span of `tracer`. `max_cycles` = 0 keeps the default horizon.
[[nodiscard]] std::unique_ptr<Cell> build_cell(const CellSpec& spec,
                                               std::uint64_t seed, Size size,
                                               const std::string& pslt_path,
                                               Cycle max_cycles,
                                               Tracer& tracer);

/// Every simulated statistic of a replay, flattened to named integers.
/// Engine diagnostics (segments, re-executions) are not simulated
/// statistics and are left out.
using Stats = std::vector<std::pair<std::string, std::int64_t>>;
[[nodiscard]] Stats simulated_stats(const sim::RunMetrics& metrics);

/// Pinned statistics of (workload, size, seed) from a reference file of
/// lines "<workload> <size> <seed> key=value ...", or nullopt when the
/// file has no such line.
[[nodiscard]] std::optional<Stats> load_reference(const std::string& path,
                                                  std::string_view workload,
                                                  Size size,
                                                  std::uint64_t seed);
[[nodiscard]] std::string format_reference(std::string_view workload,
                                           Size size, std::uint64_t seed,
                                           const Stats& stats);

/// The correctness gate. Returns why the replay failed, or "" when it
/// passed: it must complete, every core's hits plus misses must equal its
/// trace length, the observed WCL must not exceed the smallest per-core
/// bound, and its statistics must equal rep 0's and the pinned reference
/// (when one exists).
[[nodiscard]] std::string gate(const Cell& cell,
                               const sim::RunMetrics& metrics,
                               const Stats& stats, const Stats& rep0,
                               const std::optional<Stats>& pinned);

}  // namespace psllc::perfbench

#endif  // PERFBENCH_CELLS_H_
