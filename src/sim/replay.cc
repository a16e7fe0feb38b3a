#include "sim/replay.h"

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "common/assert.h"
#include "common/log.h"
#include "core/system.h"
#include "sim/kernel.h"

namespace psllc::sim {

namespace {

void validate_request(const ReplayRequest& request) {
  PSLLC_ASSERT(request.setup != nullptr, "replay request needs a setup");
  const int num_cores = request.setup->config.num_cores;
  const ReplayWorkload& w = request.workload;
  const int sources = (w.per_core != nullptr ? 1 : 0) +
                      (w.shared != nullptr ? 1 : 0) +
                      (w.shared_view != nullptr ? 1 : 0);
  PSLLC_CONFIG_CHECK(
      sources == 1,
      "replay workload must set exactly one of per_core/shared/shared_view ("
          << sources << " set)");
  if (w.per_core != nullptr) {
    PSLLC_CONFIG_CHECK(
        static_cast<int>(w.per_core->size()) <= num_cores,
        "more traces (" << w.per_core->size() << ") than cores (" << num_cores
                        << ")");
  } else {
    PSLLC_CONFIG_CHECK(w.replicas >= 1 && w.replicas <= num_cores,
                       "replay replicas (" << w.replicas << ") must be in [1, "
                                           << num_cores << "]");
    if (w.replicas > 1) {
      // Half the address space headroom keeps line math overflow-free for
      // every shifted replica (mirrors the old corpus replay_traces check).
      const Addr safe_window = (std::numeric_limits<Addr>::max() / 2) /
                               static_cast<Addr>(w.replicas - 1);
      PSLLC_CONFIG_CHECK(w.window <= safe_window,
                         "replay window 0x"
                             << std::hex << w.window << " overflows across "
                             << std::dec << w.replicas << " replicas");
    }
  }
}

/// The legacy engine: materialize per-core traces and drive a core::System
/// slot by slot. Shared sources are expanded into shifted copies exactly
/// like the corpus runner always did, so the two engines replay
/// byte-identical op streams.
RunMetrics run_legacy(const ReplayRequest& request) {
  const core::ExperimentSetup& setup = *request.setup;
  core::System system(setup);
  const ReplayWorkload& w = request.workload;
  if (w.per_core != nullptr) {
    for (std::size_t c = 0; c < w.per_core->size(); ++c) {
      system.set_trace(CoreId{static_cast<int>(c)}, (*w.per_core)[c]);
    }
  } else {
    const core::Trace materialized =
        w.shared_view != nullptr ? w.shared_view->to_trace() : core::Trace{};
    const core::Trace& base = w.shared != nullptr ? *w.shared : materialized;
    for (int c = 0; c < w.replicas; ++c) {
      const Addr offset = w.window * static_cast<Addr>(c);
      core::Trace shifted;
      shifted.reserve(base.size());
      for (const core::MemOp& op : base) {
        shifted.push_back({op.addr + offset, op.type, op.gap});
      }
      system.set_trace(CoreId{c}, std::move(shifted));
    }
  }
  return run_system(system, setup, request.options);
}

}  // namespace

bool kernel_eligible(const ReplayRequest& request) {
  if (request.setup == nullptr || request.engine == ReplayEngine::kLegacy) {
    return false;
  }
  // Record retention exposes the legacy presentation order (record ids are
  // assigned in slot order; the kernel advances lanes lazily, so it
  // discovers misses out of slot order), so those runs stay on the legacy
  // engine.
  if (request.setup->config.keep_request_records) {
    return false;
  }
  // Debug/trace logging expects the legacy per-slot log stream; the kernel
  // never visits idle slots.
  if (Logger::instance().enabled(LogLevel::kDebug)) {
    return false;
  }
  return true;
}

int effective_cell_threads(const RunOptions& options) {
  if (options.cell_threads >= 1) {
    return options.cell_threads;
  }
  static const int env_threads = [] {
    const char* raw = std::getenv("PSLLC_CELL_THREADS");
    if (raw == nullptr || *raw == '\0') {
      return 1;
    }
    char* end = nullptr;
    const long value = std::strtol(raw, &end, 10);
    PSLLC_CONFIG_CHECK(end != raw && *end == '\0' && value >= 1 &&
                           value <= 1024,
                       "PSLLC_CELL_THREADS must be an integer in [1, 1024], "
                       "got \""
                           << raw << "\"");
    return static_cast<int>(value);
  }();
  return env_threads;
}

ReplayResult replay(const ReplayRequest& request) {
  validate_request(request);
  if (request.engine == ReplayEngine::kKernel) {
    PSLLC_CONFIG_CHECK(kernel_eligible(request),
                       "replay engine forced to kernel, but the request is "
                       "not kernel-eligible");
    return {run_kernel(request), true};
  }
  if (kernel_eligible(request)) {
    return {run_kernel(request, effective_cell_threads(request.options)),
            true};
  }
  return {run_legacy(request), false};
}

}  // namespace psllc::sim
