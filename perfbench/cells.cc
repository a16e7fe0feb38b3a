#include "cells.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/wcl_analysis.h"
#include "sim/workload.h"
#include "trace/binary_io.h"

namespace psllc::perfbench {

namespace {

/// Tiny cells (self-test) replay this fraction of a full cell's accesses.
constexpr int kTinyDivisor = 25;

}  // namespace

const std::vector<CellSpec>& cell_specs() {
  // fig8_shared: the paper's Figure 8c shared cell. 8 KiB per core is 8x
  // the 4 KiB partition, so the set sequencer, evictions,
  // back-invalidations and DRAM carry the replay and every bus slot is
  // busy.
  // fig8_private: the same traces on the equal-capacity private baseline,
  // the one compose-eligible cell. Serial: on a shared host a 2-thread
  // replay needs two unloaded CPUs at once, and its best-of-N spread over
  // ten seeds reached 35% when the host was loaded.
  // periodic_mapped: one trace decoded off a mapped .pslt file on 4
  // replicas, 2x the private L2 but resident in a roomy partition, with
  // long think gaps: decode, private caches and idle-slot skipping carry
  // the replay. The gap keeps the run well inside the 2e9-cycle horizon.
  static const std::vector<CellSpec> specs = {
      {"fig8_shared", "SS(32,2,4)", 8192, 5000, 0.25, 0, 1, false},
      {"fig8_private", "P(8,2)", 8192, 5000, 0.25, 0, 1, false},
      {"periodic_mapped", "P(32,4)", 8192, 10000, 0.25, 20000, 1, true},
  };
  return specs;
}

const CellSpec* find_cell(std::string_view name) {
  for (const CellSpec& spec : cell_specs()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

sim::ReplayRequest Cell::request() const {
  sim::ReplayRequest request;
  request.setup = &setup;
  if (spec.mapped) {
    request.workload.shared_view = &*view;
    request.workload.replicas = kCores;
    request.workload.window = static_cast<Addr>(spec.range_bytes);
  } else {
    request.workload.per_core = &traces;
  }
  request.options.cell_threads = spec.cell_threads;
  request.options.max_cycles = max_cycles;
  return request;
}

core::Trace Cell::core_stream(int c) const {
  if (!spec.mapped) {
    return traces[static_cast<std::size_t>(c)];
  }
  const Addr offset = static_cast<Addr>(spec.range_bytes) * static_cast<Addr>(c);
  core::Trace shifted = traces.front();
  for (core::MemOp& op : shifted) {
    op.addr += offset;
  }
  return shifted;
}

std::unique_ptr<Cell> build_cell(const CellSpec& spec, std::uint64_t seed,
                                 Size size, const std::string& pslt_path,
                                 Cycle max_cycles, Tracer& tracer) {
  sim::RandomWorkloadOptions options;
  options.range_bytes = spec.range_bytes;
  options.accesses =
      size == Size::kFull ? spec.accesses : spec.accesses / kTinyDivisor;
  options.write_fraction = spec.write_fraction;
  options.gap = spec.gap;
  int span = tracer.begin("sim.workload");
  std::vector<core::Trace> traces;
  if (spec.mapped) {
    traces.push_back(sim::make_uniform_random_trace(0, options, seed));
  } else {
    traces = sim::make_disjoint_random_workload(kCores, options, seed);
  }
  tracer.end(span);

  span = tracer.begin("core.make_paper_setup");
  auto cell = std::make_unique<Cell>(
      spec, core::make_paper_setup(spec.notation, kCores));
  tracer.end(span);
  cell->traces = std::move(traces);
  cell->max_cycles = max_cycles > 0 ? max_cycles : sim::RunOptions{}.max_cycles;

  if (spec.mapped) {
    span = tracer.begin("trace.write");
    trace::write_trace_binary_file(pslt_path, cell->traces.front());
    tracer.end(span);
    span = tracer.begin("trace.map");
    cell->view.emplace(pslt_path);
    tracer.end(span);
  }

  // The transient bound is part of the analysis a set-up pays for; the
  // cells are static, so there is no transition to hold it against.
  span = tracer.begin("core.wcl_analysis");
  cell->min_bound = std::numeric_limits<Cycle>::max();
  for (int c = 0; c < kCores; ++c) {
    cell->min_bound = std::min(
        cell->min_bound, core::analytical_wcl_cycles(cell->setup, CoreId{c}));
    (void)core::transient_wcl_cycles(cell->setup, CoreId{c});
  }
  tracer.end(span);

  for (int c = 0; c < kCores; ++c) {
    const std::size_t source = spec.mapped ? 0 : static_cast<std::size_t>(c);
    cell->core_ops.push_back(
        static_cast<std::int64_t>(cell->traces[source].size()));
    cell->ops += cell->core_ops.back();
  }
  return cell;
}

Stats simulated_stats(const sim::RunMetrics& m) {
  Stats s;
  auto add = [&s](std::string name, std::int64_t value) {
    s.emplace_back(std::move(name), value);
  };
  add("completed", m.completed ? 1 : 0);
  add("end_cycle", m.end_cycle);
  add("makespan", m.makespan);
  add("observed_wcl", m.observed_wcl);
  add("analytical_wcl", m.analytical_wcl);
  add("observed_transient_wcl", m.observed_transient_wcl);
  add("transient_analytical_wcl", m.transient_analytical_wcl);
  add("llc_requests", m.llc_requests);
  for (std::size_t c = 0; c < m.per_core_finish.size(); ++c) {
    const std::string core = std::to_string(c);
    add("finish." + core, m.per_core_finish[c]);
    add("l1_hits." + core, m.per_core_l1_hits[c]);
    add("l2_hits." + core, m.per_core_l2_hits[c]);
    add("misses." + core, m.per_core_misses[c]);
  }
  const llc::LlcStats& l = m.llc_stats;
  add("llc.hit_presentations", l.hit_presentations);
  add("llc.blocked_presentations", l.blocked_presentations);
  add("llc.fills", l.fills);
  add("llc.evictions_started", l.evictions_started);
  add("llc.immediate_frees", l.immediate_frees);
  add("llc.voluntary_writebacks", l.voluntary_writebacks);
  add("llc.freeing_writebacks", l.freeing_writebacks);
  add("llc.steals", l.steals);
  add("llc.shared_write_flags", l.shared_write_flags);
  add("llc.repartitions", l.repartitions);
  add("llc.drain_writebacks", l.drain_writebacks);
  add("llc.drain_back_invals", l.drain_back_invals);
  const mem::MemoryCounters& d = m.memory;
  add("mem.reads", d.reads);
  add("mem.writes", d.writes);
  add("mem.row_hits", d.row_hits);
  add("mem.row_misses", d.row_misses);
  add("mem.queued_writes", d.queued_writes);
  add("mem.drained_writes", d.drained_writes);
  add("mem.write_stalls", d.write_stalls);
  add("mem.max_queue_depth", d.max_queue_depth);
  add("mem.max_latency", d.max_latency);
  add("dram_reads", m.dram_reads);
  add("dram_writes", m.dram_writes);
  return s;
}

std::optional<Stats> load_reference(const std::string& path,
                                    std::string_view workload, Size size,
                                    std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string name;
    std::string size_name;
    std::uint64_t line_seed = 0;
    if (!(fields >> name >> size_name >> line_seed) || name != workload ||
        size_name != to_string(size) || line_seed != seed) {
      continue;
    }
    Stats stats;
    std::string pair;
    while (fields >> pair) {
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Stats{};  // malformed: matches no replay
      }
      stats.emplace_back(pair.substr(0, eq),
                         std::stoll(pair.substr(eq + 1)));
    }
    return stats;
  }
  return std::nullopt;
}

std::string format_reference(std::string_view workload, Size size,
                             std::uint64_t seed, const Stats& stats) {
  std::ostringstream out;
  out << workload << ' ' << to_string(size) << ' ' << seed;
  for (const auto& [key, value] : stats) {
    out << ' ' << key << '=' << value;
  }
  return out.str();
}

std::string gate(const Cell& cell, const sim::RunMetrics& m,
                 const Stats& stats, const Stats& rep0,
                 const std::optional<Stats>& pinned) {
  if (!m.completed) {
    return "replay did not complete within the horizon";
  }
  for (int c = 0; c < kCores; ++c) {
    const std::size_t i = static_cast<std::size_t>(c);
    if (i >= m.per_core_misses.size() ||
        m.per_core_l1_hits[i] + m.per_core_l2_hits[i] + m.per_core_misses[i] !=
            cell.core_ops[i]) {
      return "core " + std::to_string(c) +
             ": hits plus misses differ from the trace length";
    }
  }
  if (m.observed_wcl > cell.min_bound) {
    return "observed WCL " + std::to_string(m.observed_wcl) +
           " exceeds the smallest per-core bound " +
           std::to_string(cell.min_bound);
  }
  if (stats != rep0) {
    return "simulated statistics differ from rep 0";
  }
  if (pinned && stats != *pinned) {
    return "simulated statistics differ from the pinned reference";
  }
  return "";
}

}  // namespace psllc::perfbench
