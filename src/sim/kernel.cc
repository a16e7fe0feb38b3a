// See kernel.h for the design contract. The kernel body lives in
// sim/replay_kernel.h and mirrors core::System::step_slot /
// TraceCore::run_until statement for statement — any edit there must keep
// the differential battery (tests/test_kernel.cc, tests/test_parallel_replay.cc)
// and the golden gates bit-identical against the legacy engine.
#include "sim/kernel.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "llc/partition.h"
#include "mem/memory_backend.h"
#include "sim/replay_kernel.h"

namespace psllc::sim {

namespace {

/// True when every lane's replay is provably independent of every other
/// lane's, so lanes replayed alone merge into the exact serial result:
///  * per-core workload (shared sources alias one op stream);
///  * static partition program (mode switches couple lanes through drains);
///  * fixed-latency DRAM (bank-row / write-queue backends carry dynamic
///    state that interleaves across lanes);
///  * single-sharer partitions (no shared LLC sets, no cross-core
///    back-invalidations);
///  * set-disjoint partitions;
///  * pairwise disjoint per-lane line ranges (no directory/set aliasing
///    even across partitions).
/// TDM arbitration needs no check: a lane's requests are presented in its
/// own slots at times fixed by its own timeline alone.
bool lanes_independent(const ReplayRequest& request) {
  const core::ExperimentSetup& setup = *request.setup;
  if (request.workload.per_core == nullptr) {
    return false;
  }
  if (setup.program.num_modes() != 1) {
    return false;
  }
  if (setup.config.dram.backend != mem::MemoryBackendKind::kFixedLatency) {
    return false;
  }
  const llc::PartitionMap& map = setup.program.initial();
  for (int p = 0; p < map.num_partitions(); ++p) {
    if (map.sharers(p).size() > 1) {
      return false;
    }
    const llc::PartitionSpec& a = map.spec(p);
    for (int q = p + 1; q < map.num_partitions(); ++q) {
      const llc::PartitionSpec& b = map.spec(q);
      if (a.first_set < b.first_set + b.num_sets &&
          b.first_set < a.first_set + a.num_sets) {
        return false;
      }
    }
  }
  std::vector<std::pair<LineAddr, LineAddr>> ranges;  // [min_line, max_line]
  for (const core::Trace& trace : *request.workload.per_core) {
    if (trace.empty()) {
      continue;
    }
    LineAddr lo = std::numeric_limits<LineAddr>::max();
    LineAddr hi = 0;
    for (const core::MemOp& op : trace) {
      const LineAddr line = setup.config.private_caches.l2.line_of(op.addr);
      lo = std::min(lo, line);
      hi = std::max(hi, line);
    }
    ranges.emplace_back(lo, hi);
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      if (ranges[i].first <= ranges[j].second &&
          ranges[j].first <= ranges[i].second) {
        return false;
      }
    }
  }
  return true;
}

template <typename Backend>
RunMetrics run_with(const ReplayRequest& request) {
  detail::ReplayKernel<Backend> kernel(*request.setup);
  kernel.set_workload(request.workload);
  return kernel.run(request.options);
}

/// Lane replay of an independent-lanes request: every non-empty lane runs
/// to the horizon alone, `threads` lanes at a time, then one fresh kernel
/// adopts the final lane states and is finalized.
template <typename Backend>
RunMetrics run_lanes_with(const ReplayRequest& request, int threads) {
  using Kernel = detail::ReplayKernel<Backend>;
  const core::ExperimentSetup& setup = *request.setup;
  const std::vector<core::Trace>& traces = *request.workload.per_core;
  std::vector<int> lanes;
  for (std::size_t l = 0; l < traces.size(); ++l) {
    if (!traces[l].empty()) {
      lanes.push_back(static_cast<int>(l));
    }
  }
  const std::size_t count = lanes.size();
  const std::size_t wave_size = static_cast<std::size_t>(threads);
  std::vector<std::unique_ptr<Kernel>> solos(count);
  std::vector<std::exception_ptr> errors(count);
  for (std::size_t wave = 0; wave < count; wave += wave_size) {
    std::vector<std::thread> workers;
    for (std::size_t i = wave; i < std::min(count, wave + wave_size); ++i) {
      workers.emplace_back([&, i] {
        try {
          auto solo = std::make_unique<Kernel>(setup);
          solo->set_workload_solo(request.workload, lanes[i]);
          solo->start(request.options);
          solo->run_to_horizon();
          solos[i] = std::move(solo);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  Kernel merged(setup);
  merged.start(request.options);
  for (std::size_t i = 0; i < count; ++i) {
    merged.adopt_lane(*solos[i], lanes[i]);
  }
  RunMetrics metrics = merged.finalize();
  metrics.parallel_segments = static_cast<std::int64_t>(count);
  return metrics;
}

}  // namespace

RunMetrics run_kernel(const ReplayRequest& request, int cell_threads) {
  PSLLC_ASSERT(kernel_eligible(request),
               "run_kernel called with a kernel-ineligible request");
  if (cell_threads > 1 && lanes_independent(request)) {
    // Independent lanes imply fixed-latency DRAM.
    return run_lanes_with<mem::FixedLatencyBackend>(request, cell_threads);
  }
  switch (request.setup->config.dram.backend) {
    case mem::MemoryBackendKind::kFixedLatency:
      return run_with<mem::FixedLatencyBackend>(request);
    case mem::MemoryBackendKind::kBankRow:
      return run_with<mem::BankRowBackend>(request);
    case mem::MemoryBackendKind::kWriteQueue:
      return run_with<mem::WriteQueueBackend>(request);
  }
  PSLLC_ASSERT(false, "unknown memory backend kind "
                          << static_cast<int>(request.setup->config.dram.backend));
  return {};
}

}  // namespace psllc::sim
