#include "core/system.h"

#include <utility>

#include "common/log.h"
#include "common/rng.h"

namespace psllc::core {

System::System(const SystemConfig& config, llc::PartitionMap partitions)
    : System(config, llc::PartitionProgram(std::move(partitions))) {}

System::System(const SystemConfig& config, llc::PartitionProgram program)
    : config_(config),
      schedule_(config_.make_schedule()),
      memory_(config_.dram.make_backend()),
      llc_(config_.llc, std::move(program), config_.mode, config_.num_cores,
           *memory_),
      tracker_(config_.num_cores, config_.keep_request_records) {
  config_.validate();
  llc_.program().validate(config_.num_cores);
  // A drain issues at most one back-invalidation per owner core a slot.
  transition_invals_.reserve(static_cast<std::size_t>(config_.num_cores));
  cores_.reserve(static_cast<std::size_t>(config_.num_cores));
  for (int c = 0; c < config_.num_cores; ++c) {
    cores_.push_back(std::make_unique<TraceCore>(
        CoreId{c}, config_.private_caches, config_.pwb_capacity, tracker_,
        mix_seed(config_.seed, static_cast<std::uint64_t>(c), 0xc04e)));
  }
}

System::System(const ExperimentSetup& setup)
    : System(setup.config, setup.program) {}

void System::set_trace(CoreId core_id, Trace trace) {
  core(core_id).set_trace(std::move(trace));
}

void System::preload_owned_line(CoreId owner, LineAddr line,
                                bool dirty_private) {
  llc_.preload(line, {owner}, /*dirty=*/false);
  core(owner).preload(line, dirty_private);
}

void System::preload_llc_line(CoreId perspective, LineAddr line, bool dirty) {
  PSLLC_ASSERT(llc_.partitions().partition_of(perspective) >= 0,
               "perspective core has no partition");
  llc_.preload(line, {}, dirty);
  (void)perspective;
}

TraceCore& System::core(CoreId id) {
  PSLLC_ASSERT(id.valid() && id.value < config_.num_cores,
               "bad core id " << id.value);
  return *cores_[static_cast<std::size_t>(id.value)];
}

const TraceCore& System::core(CoreId id) const {
  PSLLC_ASSERT(id.valid() && id.value < config_.num_cores,
               "bad core id " << id.value);
  return *cores_[static_cast<std::size_t>(id.value)];
}

void System::step_slot() {
  const Cycle slot_start = now_;
  // 1. Local execution up to the slot boundary.
  for (auto& core_ptr : cores_) {
    core_ptr->run_until(slot_start);
  }
  // 1b. Partition-mode transitions fire at slot boundaries: switch the map,
  // drain incompatible residents (their back-invalidations are delivered
  // like eviction-triggered ones), and fence before releasing new ways.
  transition_invals_.clear();
  llc_.advance_transition(slot_start, transition_invals_);
  for (const auto& binval : transition_invals_) {
    deliver_back_invalidation(binval, slot_start);
  }
  // 2. Slot owner puts one message on the bus.
  const CoreId owner = schedule_.owner_of_slot(slot_index_);
  TraceCore& owner_core = core(owner);
  SlotEvent event;
  event.slot_index = slot_index_;
  event.slot_start = slot_start;
  event.owner = owner;

  switch (owner_core.buffers().pick(slot_start)) {
    case bus::PendingBuffers::Pick::kNone:
      break;
    case bus::PendingBuffers::Pick::kRequest: {
      const bus::BusMessage& msg = owner_core.buffers().request();
      const std::uint64_t request_id = msg.request_id;
      const LineAddr line = msg.line;
      event.action = SlotEvent::Action::kRequest;
      event.line = line;
      tracker_.on_presented(owner, request_id, slot_start);
      const llc::RequestOutcome outcome =
          llc_.handle_request(owner, line, slot_start, msg.access);
      if (outcome.back_invalidation) {
        deliver_back_invalidation(*outcome.back_invalidation, slot_start);
      }
      if (outcome.completed()) {
        const Cycle completion = slot_start + config_.slot_width;
        // A hit may race an in-flight voluntary write-back for the same
        // line (the core re-fetched a line whose dirty victim write-back is
        // still queued). Cancel the write-back and recover its dirtiness
        // into the refilled private copy, keeping the directory exact.
        bool recovered_dirty = false;
        if (const auto cancelled =
                owner_core.buffers().cancel_writeback(line)) {
          recovered_dirty = cancelled->carries_dirty_data;
          ++writebacks_cancelled_;
        }
        const std::optional<mem::Evicted> victim =
            owner_core.on_response(completion, recovered_dirty);
        const Cycle first_presented =
            tracker_.inflight(owner).first_presented;
        if (llc_.overlaps_transition(first_presented, completion)) {
          const Cycle latency = completion - first_presented;
          if (observed_transient_wcl_ == kNoCycle ||
              latency > observed_transient_wcl_) {
            observed_transient_wcl_ = latency;
          }
        }
        tracker_.on_completed(owner, request_id, completion);
        event.request_completed = true;
        if (victim) {
          handle_private_victim(owner_core, *victim, completion);
        }
        PSLLC_TRACE("slot " << slot_index_ << " " << to_string(owner)
                            << " Resp line=0x" << std::hex << line);
      }
      break;
    }
    case bus::PendingBuffers::Pick::kWriteBack: {
      const bus::BusMessage msg = owner_core.buffers().pop_writeback();
      event.action = SlotEvent::Action::kWriteBack;
      event.line = msg.line;
      tracker_.on_writeback_sent(owner);
      const llc::WritebackOutcome outcome = llc_.handle_writeback(
          owner, msg.line, msg.carries_dirty_data, msg.frees_llc_entry,
          slot_start);
      event.writeback_frees = outcome.freed_entry;
      PSLLC_TRACE("slot " << slot_index_ << " " << to_string(owner)
                          << " WB line=0x" << std::hex << msg.line
                          << (outcome.freed_entry ? " (freed)" : ""));
      break;
    }
  }

  for (const auto& observer : observers_) {
    observer(event);
  }
  now_ += config_.slot_width;
  ++slot_index_;
}

void System::deliver_back_invalidation(const llc::BackInvalidation& binval,
                                       Cycle slot_start) {
  for (CoreId owner : binval.owners) {
    TraceCore& owner_core = core(owner);
    const mem::ForcedEviction evicted = owner_core.force_evict(binval.line);
    if (evicted.was_present) {
      PSLLC_ASSERT(!owner_core.buffers().has_writeback_for(binval.line),
                   "core holds line 0x" << std::hex << binval.line
                                        << " while its write-back is queued");
      if (evicted.was_dirty || config_.llc.clean_back_inval_costs_slot) {
        bus::BusMessage wb;
        wb.kind = bus::MessageKind::kWriteBack;
        wb.source = owner;
        wb.line = binval.line;
        wb.carries_dirty_data = evicted.was_dirty;
        wb.frees_llc_entry = true;
        wb.enqueued_at = slot_start;
        owner_core.buffers().push_writeback(wb);
      } else {
        // Clean copy acknowledged without a bus slot (ablation mode).
        (void)llc_.ack_back_invalidation_silent(owner, binval.line,
                                                slot_start);
      }
    } else if (owner_core.buffers().has_writeback_for(binval.line)) {
      // The private copy is gone but its voluntary write-back is still in
      // flight; upgrade it so its arrival frees the LLC entry.
      const bool upgraded =
          owner_core.buffers().upgrade_writeback_to_forced(binval.line);
      PSLLC_ASSERT(upgraded, "upgrade failed despite queued write-back");
    } else {
      PSLLC_ASSERT(false, "directory lists " << to_string(owner)
                                             << " for line 0x" << std::hex
                                             << binval.line
                                             << " but the core has neither "
                                                "the line nor a write-back");
    }
  }
}

void System::handle_private_victim(TraceCore& owner,
                                   const mem::Evicted& victim,
                                   Cycle completion) {
  if (victim.dirty) {
    // Voluntary write-back: the directory keeps the core as sharer until
    // the write-back reaches the LLC.
    bus::BusMessage wb;
    wb.kind = bus::MessageKind::kWriteBack;
    wb.source = owner.id();
    wb.line = victim.line;
    wb.carries_dirty_data = true;
    wb.frees_llc_entry = false;
    wb.enqueued_at = completion;
    owner.buffers().push_writeback(wb);
  } else {
    // Clean victim: drop silently, but keep the directory exact.
    llc_.notify_silent_eviction(owner.id(), victim.line);
  }
}

bool System::all_done() const {
  for (const auto& core_ptr : cores_) {
    if (!core_ptr->trace_done() || core_ptr->buffers().has_request() ||
        core_ptr->buffers().has_writeback()) {
      return false;
    }
  }
  return true;
}

Cycle System::makespan() const {
  Cycle makespan = 0;
  for (const auto& core_ptr : cores_) {
    PSLLC_ASSERT(core_ptr->trace_done(),
                 to_string(core_ptr->id()) << " has not finished its trace");
    makespan = std::max(makespan, core_ptr->finish_time());
  }
  return makespan;
}

RunResult System::run(Cycle max_cycles) {
  while (!all_done() && now_ < max_cycles) {
    step_slot();
  }
  return RunResult{all_done(), now_, slot_index_};
}

RunResult System::run_slots(std::int64_t max_slots) {
  const std::int64_t limit = slot_index_ + max_slots;
  while (!all_done() && slot_index_ < limit) {
    step_slot();
  }
  return RunResult{all_done(), now_, slot_index_};
}

void System::add_slot_observer(std::function<void(const SlotEvent&)> observer) {
  observers_.push_back(std::move(observer));
}

}  // namespace psllc::core
