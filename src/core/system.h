// The full multicore system model of the paper's Figure 1: N trace-driven
// cores (L1I/L1D + L2 each), a TDM-arbitrated shared bus, the partitioned
// inclusive LLC, and DRAM behind it.
//
// Simulation advances one TDM slot at a time:
//  1. every core executes local work (L1/L2 hits) up to the slot boundary;
//  2. the slot owner's L2 controller round-robin-picks one eligible message
//     (request or write-back) and places it on the bus;
//  3. the LLC services it: hits/fills complete at the end of the slot;
//     blocked requests may trigger an eviction whose back-invalidations are
//     delivered to the owning cores immediately (their freeing write-backs
//     occupy later slots of their own).
#ifndef PSLLC_CORE_SYSTEM_H_
#define PSLLC_CORE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bus/tdm_schedule.h"
#include "core/request_tracker.h"
#include "core/system_config.h"
#include "core/trace_core.h"
#include "llc/llc.h"
#include "mem/memory_backend.h"

namespace psllc::core {

/// What happened in one bus slot (fed to observers such as the
/// DistanceMonitor).
struct SlotEvent {
  std::int64_t slot_index = 0;
  Cycle slot_start = 0;
  CoreId owner;
  enum class Action : std::uint8_t { kIdle, kRequest, kWriteBack };
  Action action = Action::kIdle;
  LineAddr line = 0;
  bool request_completed = false;  ///< kRequest: hit or filled this slot
  bool writeback_frees = false;    ///< kWriteBack: freed an LLC entry
};

struct RunResult {
  bool all_done = false;
  Cycle end_cycle = 0;
  std::int64_t slots_executed = 0;
};

class System {
 public:
  System(const SystemConfig& config, llc::PartitionMap partitions);
  System(const SystemConfig& config, llc::PartitionProgram program);
  explicit System(const ExperimentSetup& setup);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Assigns `trace` to `core` (before or between runs).
  void set_trace(CoreId core, Trace trace);

  /// Scenario setup: `line` resident in the LLC and privately cached by
  /// `owner` (`dirty_private` marks the private copy dirty). Mirrors the
  /// paper's "l1 : c3" initial states.
  void preload_owned_line(CoreId owner, LineAddr line,
                          bool dirty_private = false);

  /// Scenario setup: `line` resident in the LLC only (no private copies).
  /// Mapped through `perspective`'s partition.
  void preload_llc_line(CoreId perspective, LineAddr line, bool dirty);

  /// Executes one TDM slot.
  void step_slot();

  /// Runs until every trace finished and all buffers drained, or
  /// `max_cycles` elapsed.
  RunResult run(Cycle max_cycles);
  RunResult run_slots(std::int64_t max_slots);

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] std::int64_t current_slot() const { return slot_index_; }

  /// Max trace finish time across cores — the execution-time metric of the
  /// paper's Figure 8.
  [[nodiscard]] Cycle makespan() const;

  [[nodiscard]] TraceCore& core(CoreId id);
  [[nodiscard]] const TraceCore& core(CoreId id) const;
  [[nodiscard]] const llc::PartitionedLlc& llc() const { return llc_; }
  [[nodiscard]] llc::PartitionedLlc& llc_mut() { return llc_; }
  [[nodiscard]] const RequestTracker& tracker() const { return tracker_; }
  [[nodiscard]] const bus::TdmSchedule& schedule() const { return schedule_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  /// Read-only query view of the memory backend behind the LLC (selected
  /// by config().dram.backend; owned by this System — see
  /// mem/memory_backend.h for the WCL contract). Only the query surface is
  /// exposed; driving the backend stays internal to the replay engines.
  [[nodiscard]] mem::MemoryView memory() const {
    return mem::MemoryView(*memory_);
  }

  /// Registers a per-slot observer (called after the slot's bus action).
  void add_slot_observer(std::function<void(const SlotEvent&)> observer);

  /// Voluntary write-backs cancelled because the core re-fetched the line
  /// while they were still queued (dirtiness folded back into the refill).
  [[nodiscard]] std::int64_t writebacks_cancelled() const {
    return writebacks_cancelled_;
  }

  /// Max observed service latency over requests whose in-flight interval
  /// overlapped a partition-mode transition window. kNoCycle when no
  /// request overlapped a transition (or the program is static).
  [[nodiscard]] Cycle observed_transient_wcl() const {
    return observed_transient_wcl_;
  }

 private:
  void deliver_back_invalidation(const llc::BackInvalidation& binval,
                                 Cycle slot_start);
  void handle_private_victim(TraceCore& owner, const mem::Evicted& victim,
                             Cycle completion);

  SystemConfig config_;
  bus::TdmSchedule schedule_;
  std::unique_ptr<mem::MemoryBackend> memory_;
  llc::PartitionedLlc llc_;
  RequestTracker tracker_;
  std::vector<std::unique_ptr<TraceCore>> cores_;
  Cycle now_ = 0;
  std::int64_t slot_index_ = 0;
  std::int64_t writebacks_cancelled_ = 0;
  Cycle observed_transient_wcl_ = kNoCycle;
  /// Drain back-invalidations of the current slot (reused every slot).
  std::vector<llc::BackInvalidation> transition_invals_;
  std::vector<std::function<void(const SlotEvent&)>> observers_;
};

}  // namespace psllc::core

#endif  // PSLLC_CORE_SYSTEM_H_
