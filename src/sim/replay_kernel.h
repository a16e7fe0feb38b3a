// Internal implementation of the struct-of-arrays replay kernel, shared by
// the serial path and lane replay in kernel.cc. Everything here lives in
// psllc::sim::detail and is NOT part of the public sim API — use
// sim::replay() / sim::run_kernel().
//
// A replay is three steps:
//  * start(options)     — fixes the horizon, resets the slot clock;
//  * run_to_horizon()   — replays every slot inside the horizon;
//  * finalize()         — exit determination + metric fill.
//
// Stepping is owner-driven. Every lane caches one candidate slot, always a
// slot it owns: the exact slot of its earliest buffered PRB/PWB message
// or, while it still runs, a lower bound on the slot of its next request.
// run_to_horizon() takes the minimum candidate and executes that slot,
// advancing only its owner to the slot start; when the owner turns out to
// have nothing eligible the slot was an idle probe. Other lanes lag and are
// advanced lazily — before a back-invalidation reaches them, at a pinned
// transition slot, and at the end. That replays the legacy loop's exact op
// sequence per lane: a lane's private state changes only through its own
// ops, its own fills (it is the owner then) and force-evicts (it is
// advanced first), only the owner can act in a slot, and no lane ever runs
// past an executed or pinned slot.
//
// Candidate selection keeps a stale-lane bitmask (one bit per lane; the LLC
// caps a system at 64 cores). Every mutation of a lane's buffers or replay
// state sets its bit, and so does executing a slot, for the owner. Each
// run_to_horizon() step recomputes only the stale lanes' candidates, clears
// the mask and takes a branch-free minimum over all cached candidates. That
// is exact: after a slot executes, the owner's candidate is the only one
// below the new slot clock (every other lane's candidate lies beyond the
// executed slot, which it does not own), and the owner is always stale.
//
// Lane replay runs each lane alone (set_workload_solo) to the horizon on its
// own kernel, then grafts the final lane states into one fresh kernel with
// adopt_lane() and finalizes that. Request ids are never renumbered: they
// are bookkeeping handles, never observable in RunMetrics, and a merged
// kernel is only finalized, never replayed further.
#ifndef PSLLC_SIM_REPLAY_KERNEL_H_
#define PSLLC_SIM_REPLAY_KERNEL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "bus/message.h"
#include "bus/pending_buffers.h"
#include "bus/tdm_schedule.h"
#include "common/assert.h"
#include "common/invariant_divisor.h"
#include "common/rng.h"
#include "core/request_tracker.h"
#include "core/wcl_analysis.h"
#include "llc/llc.h"
#include "mem/memory_backend.h"
#include "mem/private_cache.h"
#include "sim/replay.h"
#include "trace/mapped_trace.h"

namespace psllc::sim::detail {

constexpr std::int64_t kNoSlot = std::numeric_limits<std::int64_t>::max();

/// Records decoded per MappedTrace batch. Large enough to amortize the
/// per-batch call, small enough to stay resident in L1d (4096 * 24 B).
constexpr std::uint64_t kChunkOps = 4096;

/// Read cursor over one lane's op stream. Either borrows a materialized
/// trace (per-core / shared workloads, address offset applied per access)
/// or decodes .pslt records in batches straight off the mapped view into a
/// reused chunk buffer (offset applied at decode). No per-op allocation:
/// the chunk is reserved once and recycled.
class LaneCursor {
 public:
  void init_direct(const core::Trace& trace, Addr offset) {
    direct_ = trace.data();
    size_ = trace.size();
    offset_ = offset;
  }

  void init_view(const trace::MappedTrace& view, Addr offset) {
    view_ = &view;
    size_ = view.size();
    offset_ = offset;
    chunk_.reserve(static_cast<std::size_t>(std::min(size_, kChunkOps)));
  }

  [[nodiscard]] std::uint64_t size() const { return size_; }

  [[nodiscard]] core::MemOp at(std::uint64_t pc) {
    if (direct_ != nullptr) {
      core::MemOp op = direct_[pc];
      op.addr += offset_;
      return op;
    }
    if (pc < chunk_begin_ || pc >= chunk_end_) {
      refill(pc);
    }
    return chunk_[static_cast<std::size_t>(pc - chunk_begin_)];
  }

 private:
  void refill(std::uint64_t pc) {
    chunk_begin_ = pc;
    chunk_end_ = std::min(pc + kChunkOps, size_);
    chunk_.resize(static_cast<std::size_t>(chunk_end_ - chunk_begin_));
    view_->decode_batch(chunk_begin_, chunk_end_ - chunk_begin_, offset_,
                        chunk_.data());
  }

  const core::MemOp* direct_ = nullptr;
  const trace::MappedTrace* view_ = nullptr;
  Addr offset_ = 0;
  std::uint64_t size_ = 0;
  std::vector<core::MemOp> chunk_;
  std::uint64_t chunk_begin_ = 0;
  std::uint64_t chunk_end_ = 0;  ///< chunk covers [chunk_begin_, chunk_end_)
};

template <typename Backend>
class ReplayKernel {
 public:
  explicit ReplayKernel(const core::ExperimentSetup& setup)
      : setup_(setup),
        config_(setup.config),
        schedule_(config_.make_schedule()),
        memory_(config_.dram),
        llc_(config_.llc, setup.program, config_.mode, config_.num_cores,
             memory_),
        tracker_(config_.num_cores, /*keep_records=*/false) {
    config_.validate();
    llc_.program().validate(config_.num_cores);
    const int n = config_.num_cores;
    const std::size_t count = static_cast<std::size_t>(n);
    // TDM geometry, built once so the per-slot path neither divides nor
    // calls out of line: exact divisors for the slot width and the period,
    // and a dense (core, phase) -> slots-until-next-owned table. Every core
    // owns at least one slot per period (validated by the schedule
    // builders), so the scan below terminates within one period.
    period_ = static_cast<std::int64_t>(schedule_.slots_per_period());
    period_div_ = InvariantDivisor(static_cast<std::uint64_t>(period_));
    slot_div_ = InvariantDivisor(static_cast<std::uint64_t>(config_.slot_width));
    next_owned_delta_.assign(count * static_cast<std::size_t>(period_), 0);
    for (int c = 0; c < n; ++c) {
      for (std::int64_t p = 0; p < period_; ++p) {
        std::int64_t d = 0;
        while (schedule_.owner_of_slot(p + d).value != c) {
          ++d;
        }
        next_owned_delta_[static_cast<std::size_t>(c * period_ + p)] = d;
      }
    }
    cursors_.resize(count);
    pc_.assign(count, 0);
    lane_size_.assign(count, 0);
    candidate_.assign(count, kNoSlot);
    // The LLC (constructed above) has already rejected more than 64 cores.
    stale_ = n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    next_ready_.assign(count, 0);
    finish_time_.assign(count, 0);
    done_slot_.assign(count, 0);
    gap_applied_.assign(count, 0);
    blocked_.assign(count, 0);
    out_addr_.assign(count, 0);
    out_type_.assign(count, AccessType::kRead);
    // A drain issues at most one back-invalidation per owner core a slot.
    transition_invals_.reserve(count);
    caches_.reserve(count);
    buffers_.reserve(count);
    for (int c = 0; c < n; ++c) {
      caches_.emplace_back(
          config_.private_caches,
          mix_seed(config_.seed, static_cast<std::uint64_t>(c), 0xc04e));
      buffers_.emplace_back(config_.pwb_capacity);
    }
  }

  // The LLC holds a pointer to memory_, so a copy would alias the original.
  ReplayKernel(const ReplayKernel&) = delete;
  ReplayKernel& operator=(const ReplayKernel&) = delete;

  void set_workload(const ReplayWorkload& workload) {
    const int n = config_.num_cores;
    for (int c = 0; c < n; ++c) {
      const std::size_t l = static_cast<std::size_t>(c);
      if (workload.per_core != nullptr) {
        if (l < workload.per_core->size()) {
          cursors_[l].init_direct((*workload.per_core)[l], 0);
        }
      } else if (c < workload.replicas) {
        const Addr offset = workload.window * static_cast<Addr>(c);
        if (workload.shared != nullptr) {
          cursors_[l].init_direct(*workload.shared, offset);
        } else {
          cursors_[l].init_view(*workload.shared_view, offset);
        }
      }
      lane_size_[l] = cursors_[l].size();
      // An empty lane is trace-done from cycle 0: the legacy loop observes
      // it before slot 0, so its contribution to the exit slot is 0.
      done_slot_[l] = 0;
    }
  }

  /// Installs only `lane`'s trace of a per-core workload; every other lane
  /// idles. Lane replay runs one such kernel per non-empty lane.
  void set_workload_solo(const ReplayWorkload& workload, int lane) {
    PSLLC_ASSERT(workload.per_core != nullptr,
                 "solo replay needs a per-core workload");
    const std::size_t l = static_cast<std::size_t>(lane);
    PSLLC_ASSERT(l < workload.per_core->size(),
                 "solo lane " << lane << " has no trace");
    cursors_[l].init_direct((*workload.per_core)[l], 0);
    lane_size_[l] = cursors_[l].size();
  }

  /// Fixes the replay horizon and resets the slot clock to 0.
  void start(const RunOptions& options) {
    horizon_ = first_slot_at_or_after(options.max_cycles);
    // Deepest run_until limit the legacy loop ever issues: the start of
    // the last slot inside the horizon. Lanes must never run past it.
    deepest_ = horizon_ > 0 ? slot_start(horizon_ - 1) : 0;
    cur_slot_ = 0;
    last_action_slot_ = -1;
  }

  /// Single-shot serial replay.
  RunMetrics run(const RunOptions& options) {
    start(options);
    run_to_horizon();
    return finalize();
  }

  /// Replays every slot inside the horizon, then settles all lanes to the
  /// legacy loop's deepest run_until limit.
  void run_to_horizon() {
    if (horizon_ == 0) {
      return;
    }
    const int n = config_.num_cores;
    for (;;) {
      // 0. Partition-mode transitions pin slots the idle-skip must not
      //    jump: while a transition drains, every slot pumps it (legacy
      //    executes every slot), and the first slot at or after the next
      //    trigger epoch is where the mode switch fires. `fslot` is the
      //    earliest such pinned slot (kNoSlot for static programs).
      std::int64_t fslot = kNoSlot;
      if (llc_.transition_active()) {
        fslot = cur_slot_;
      } else {
        const Cycle epoch = llc_.next_transition_epoch();
        if (epoch != kNoCycle) {
          fslot = std::max(cur_slot_, first_slot_at_or_after(epoch));
        }
      }
      // 1. The next slot in which any lane may act: the smallest candidate.
      //    No lane can act before its own candidate, and the slot has one
      //    owner, so nothing happens in between.
      for (std::uint64_t m = stale_; m != 0; m &= m - 1) {
        refresh_candidate(std::countr_zero(m));
      }
      stale_ = 0;
      std::int64_t action = kNoSlot;
      for (const std::int64_t candidate : candidate_) {
        PSLLC_AUDIT(candidate >= cur_slot_,
                    "cached candidate slot " << candidate
                                             << " behind the slot clock "
                                             << cur_slot_ << " was not stale");
        action = std::min(action, candidate);
      }
      if (std::min(action, fslot) >= horizon_) {
        break;
      }
      if (fslot < action) {
        // 2. A pinned transition slot precedes every candidate. Execute it
        // only if the legacy loop would still be running there: advance
        // lanes to its boundary (exactly what System::step_slot does) and
        // replicate the `while (!all_done())` exit — traces finished and
        // buffers drained earlier means legacy stopped before the trigger,
        // mid-schedule or even mid-drain, and so must we.
        const Cycle fstart = slot_start(fslot);
        for (int l = 0; l < n; ++l) {
          advance_lane(l, fstart);
        }
        bool running = false;
        std::int64_t exit_slot = last_action_slot_ + 1;
        for (int l = 0; l < n && !running; ++l) {
          const std::size_t s = static_cast<std::size_t>(l);
          if (blocked_[s] != 0 || pc_[s] < lane_size_[s] ||
              buffers_[s].has_request() || buffers_[s].has_writeback()) {
            running = true;
          } else {
            exit_slot = std::max(exit_slot, done_slot_[s]);
          }
        }
        if (!running && exit_slot <= fslot) {
          break;
        }
        execute_slot(fslot);
        last_action_slot_ = fslot;
        cur_slot_ = fslot + 1;
        continue;
      }
      // 3. Execute the candidate slot like System::step_slot. A probe that
      //    finds nothing eligible is an idle slot, which legacy's exit
      //    check does not see either.
      if (execute_slot(action)) {
        last_action_slot_ = action;
      }
      cur_slot_ = action + 1;
    }
    // Settle: finish the remaining local work up to the legacy loop's
    // deepest limit (a lane may still block here; its request lands beyond
    // the horizon).
    for (int l = 0; l < n; ++l) {
      advance_lane(l, deepest_);
    }
  }

  /// Exit determination + metric fill, replicating the legacy `while
  /// (!all_done() && now_ < max_cycles)` loop: all_done first becomes
  /// observable at the slot boundary after the last lane finished / last
  /// message drained.
  [[nodiscard]] RunMetrics finalize() const {
    const Cycle W = config_.slot_width;
    const int n = config_.num_cores;
    bool drained = true;
    std::int64_t exit_slot = last_action_slot_ + 1;
    for (int l = 0; l < n && drained; ++l) {
      const std::size_t s = static_cast<std::size_t>(l);
      if (blocked_[s] != 0 || pc_[s] < lane_size_[s] ||
          buffers_[s].has_request() || buffers_[s].has_writeback()) {
        drained = false;
      } else {
        exit_slot = std::max(exit_slot, done_slot_[s]);
      }
    }
    const bool completed = drained && exit_slot <= horizon_;
    const Cycle end_cycle = completed ? exit_slot * W : horizon_ * W;
    return fill_metrics(completed, end_cycle);
  }

  /// Grafts lane `lane`'s final state from `solo` — a kernel that replayed
  /// that lane alone (set_workload_solo) to the same horizon — into this
  /// started, never-replayed kernel. Exact only for independent lanes; the
  /// caller (sim/kernel.cc) gates on that.
  void adopt_lane(const ReplayKernel& solo, int lane) {
    const std::size_t l = static_cast<std::size_t>(lane);
    lane_size_[l] = solo.lane_size_[l];
    pc_[l] = solo.pc_[l];
    next_ready_[l] = solo.next_ready_[l];
    finish_time_[l] = solo.finish_time_[l];
    done_slot_[l] = solo.done_slot_[l];
    gap_applied_[l] = solo.gap_applied_[l];
    blocked_[l] = solo.blocked_[l];
    out_addr_[l] = solo.out_addr_[l];
    out_type_[l] = solo.out_type_[l];
    caches_[l] = solo.caches_[l];
    buffers_[l] = solo.buffers_[l];
    tracker_.absorb_solo(solo.tracker_);
    llc_.adopt_solo_lane(solo.llc_, CoreId{lane});
    memory_.absorb_solo_counters(solo.memory_);
    cur_slot_ = std::max(cur_slot_, solo.cur_slot_);
    last_action_slot_ = std::max(last_action_slot_, solo.last_action_slot_);
  }

 private:
  /// Queues lane `l`'s cached candidate slot for recomputation.
  void mark_stale(int l) { stale_ |= std::uint64_t{1} << l; }

  [[nodiscard]] Cycle slot_start(std::int64_t slot) const {
    return slot * config_.slot_width;
  }

  /// First slot index whose start cycle is >= `t` (slot k spans
  /// [k*W, (k+1)*W)). Messages enqueued at `t` are pick-eligible from the
  /// first slot start at or after `t`.
  [[nodiscard]] std::int64_t first_slot_at_or_after(Cycle t) const {
    if (t <= 0) {
      return 0;
    }
    const auto cycles = static_cast<std::uint64_t>(t);
    const std::uint64_t q = slot_div_.quotient(cycles);
    return static_cast<std::int64_t>(q * slot_div_.divisor() < cycles ? q + 1
                                                                      : q);
  }

  /// TdmSchedule::owner_of_slot through the period divisor: the schedule's
  /// slot list is the owner of each phase.
  [[nodiscard]] CoreId owner_of(std::int64_t slot) const {
    return schedule_.slots()[static_cast<std::size_t>(
        period_div_.remainder(static_cast<std::uint64_t>(slot)))];
  }

  /// First slot >= cur_slot_ owned by lane `l` whose start is at or after
  /// `enqueued_at` — the exact slot in which the message becomes
  /// pick-eligible.
  [[nodiscard]] std::int64_t message_slot(int l, Cycle enqueued_at) const {
    const std::int64_t from =
        std::max(cur_slot_, first_slot_at_or_after(enqueued_at));
    const auto phase = static_cast<std::int64_t>(
        period_div_.remainder(static_cast<std::uint64_t>(from)));
    return from + next_owned_delta_[static_cast<std::size_t>(
                      l * period_ + phase)];
  }

  /// Lower bound on the slot in which lane `l`'s *next* LLC request could
  /// be presented: even if the very next op misses, its request is enqueued
  /// no earlier than next_ready + pending gap + L1 + L2 tag walks, and
  /// every hit in between only pushes that later.
  [[nodiscard]] std::int64_t lower_bound_slot(int l) {
    const std::size_t s = static_cast<std::size_t>(l);
    const core::MemOp op = cursors_[s].at(pc_[s]);
    const Cycle gap = gap_applied_[s] != 0 ? 0 : op.gap;
    const Cycle earliest_issue = next_ready_[s] + gap +
                                 config_.private_caches.l1_hit_latency +
                                 config_.private_caches.l2_hit_latency;
    return message_slot(l, earliest_issue);
  }

  /// Recomputes lane `l`'s candidate slot: the earliest slot it owns in
  /// which it may put a message on the bus — exact for buffered messages, a
  /// lower bound for a request it has not issued yet; kNoSlot when it has
  /// nothing left. A cached value stays exact while it is >= cur_slot_ and
  /// the lane's state is unchanged: for cur' >= cur with c >= cur', no slot
  /// of the lane lies in [cur, c), hence none in [cur', c). Every mutation
  /// of the lane's buffers or replay state marks the lane stale.
  void refresh_candidate(int l) {
    const std::size_t s = static_cast<std::size_t>(l);
    std::int64_t slot = kNoSlot;
    if (blocked_[s] == 0 && pc_[s] < lane_size_[s]) {
      slot = lower_bound_slot(l);
    }
    const bus::PendingBuffers& buf = buffers_[s];
    if (buf.has_request()) {
      slot = std::min(slot, message_slot(l, buf.request().enqueued_at));
    }
    if (buf.has_writeback()) {
      slot = std::min(slot, message_slot(l, buf.front_writeback().enqueued_at));
    }
    candidate_[s] = slot;
  }

  /// TraceCore::run_until on flat lane state.
  void advance_lane(int l, Cycle limit) {
    const std::size_t s = static_cast<std::size_t>(l);
    if (blocked_[s] != 0) {
      return;
    }
    const Cycle l1_latency = config_.private_caches.l1_hit_latency;
    const Cycle l2_latency = config_.private_caches.l2_hit_latency;
    const std::uint64_t size = lane_size_[s];
    LaneCursor& cursor = cursors_[s];
    mem::PrivateCacheHierarchy& caches = caches_[s];
    std::uint64_t pc = pc_[s];
    Cycle next_ready = next_ready_[s];
    const std::uint64_t entry_pc = pc;
    const Cycle entry_next_ready = next_ready;
    const unsigned char entry_gap_applied = gap_applied_[s];
    while (pc < size) {
      const core::MemOp op = cursor.at(pc);
      if (gap_applied_[s] == 0) {
        next_ready += op.gap;
        gap_applied_[s] = 1;
      }
      if (next_ready >= limit) {
        break;  // nothing more can start before the slot boundary
      }
      const Cycle start = next_ready;
      const mem::HitLevel level = caches.access(op.addr, op.type);
      if (level == mem::HitLevel::kL1) {
        next_ready += l1_latency;
      } else if (level == mem::HitLevel::kL2) {
        next_ready += l1_latency + l2_latency;
      } else {
        const Cycle issue = next_ready + l1_latency + l2_latency;
        const LineAddr line = config_.private_caches.l2.line_of(op.addr);
        const std::uint64_t id =
            tracker_.begin(CoreId{l}, line, op.type, issue);
        bus::BusMessage msg;
        msg.kind = bus::MessageKind::kRequest;
        msg.source = CoreId{l};
        msg.line = line;
        msg.access = op.type;
        msg.request_id = id;
        msg.enqueued_at = issue;
        buffers_[s].set_request(msg);
        out_addr_[s] = op.addr;
        out_type_[s] = op.type;
        blocked_[s] = 1;
        break;
      }
      ++pc;
      gap_applied_[s] = 0;
      if (pc == size) {
        finish_time_[s] = next_ready;
        // The legacy loop consumes this op while executing the slot that
        // contains `start`, so all_done is first observable one slot after
        // that one.
        done_slot_[s] = static_cast<std::int64_t>(slot_div_.quotient(
                            static_cast<std::uint64_t>(start))) +
                        2;
      }
    }
    pc_[s] = pc;
    next_ready_[s] = next_ready;
    if (pc != entry_pc || next_ready != entry_next_ready ||
        gap_applied_[s] != entry_gap_applied) {
      mark_stale(l);
    }
  }

  /// System::step_slot for the one slot `slot`, advancing only the slot
  /// owner (no other lane can act in it). Returns false when the owner had
  /// nothing eligible (an idle probe). Either way the owner's candidate —
  /// `slot` itself, or a bound from before it — is stale afterwards.
  bool execute_slot(std::int64_t slot) {
    const Cycle slot_start = this->slot_start(slot);
    const CoreId owner = owner_of(slot);
    const std::size_t o = static_cast<std::size_t>(owner.value);
    advance_lane(owner.value, slot_start);
    mark_stale(owner.value);
    // Mirror of System::step_slot step 1b: fire/pump mode transitions at
    // the slot boundary before the owner pick.
    transition_invals_.clear();
    llc_.advance_transition(slot_start, transition_invals_);
    for (const auto& binval : transition_invals_) {
      deliver_back_invalidation(binval, slot_start);
    }
    switch (buffers_[o].pick(slot_start)) {
      case bus::PendingBuffers::Pick::kNone:
        return false;
      case bus::PendingBuffers::Pick::kRequest: {
        const bus::BusMessage& msg = buffers_[o].request();
        const std::uint64_t request_id = msg.request_id;
        const LineAddr line = msg.line;
        tracker_.on_presented(owner, request_id, slot_start);
        const llc::RequestOutcome outcome =
            llc_.handle_request(owner, line, slot_start, msg.access);
        if (outcome.back_invalidation) {
          deliver_back_invalidation(*outcome.back_invalidation, slot_start);
        }
        if (outcome.completed()) {
          const Cycle completion = slot_start + config_.slot_width;
          bool recovered_dirty = false;
          if (const auto cancelled = buffers_[o].cancel_writeback(line)) {
            recovered_dirty = cancelled->carries_dirty_data;
          }
          const std::optional<mem::Evicted> victim =
              respond(owner.value, slot, completion, recovered_dirty);
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
          if (victim) {
            handle_private_victim(owner, *victim, completion);
          }
        }
        break;
      }
      case bus::PendingBuffers::Pick::kWriteBack: {
        const bus::BusMessage msg = buffers_[o].pop_writeback();
        tracker_.on_writeback_sent(owner);
        (void)llc_.handle_writeback(owner, msg.line, msg.carries_dirty_data,
                                    msg.frees_llc_entry, slot_start);
        break;
      }
    }
    return true;
  }

  /// TraceCore::on_response on flat lane state; `slot` is the serving slot.
  std::optional<mem::Evicted> respond(int l, std::int64_t slot,
                                      Cycle completion, bool recovered_dirty) {
    const std::size_t s = static_cast<std::size_t>(l);
    PSLLC_ASSERT(blocked_[s] != 0,
                 "lane " << l << " got a response without a request");
    const bool write = is_write(out_type_[s]) || recovered_dirty;
    std::optional<mem::Evicted> victim =
        caches_[s].fill(out_addr_[s], out_type_[s], write);
    blocked_[s] = 0;
    buffers_[s].clear_request();
    next_ready_[s] = completion;
    ++pc_[s];
    gap_applied_[s] = 0;
    if (pc_[s] == lane_size_[s]) {
      finish_time_[s] = completion;
      done_slot_[s] = slot + 1;
    }
    return victim;
  }

  /// System::deliver_back_invalidation on flat lane state. Each target lane
  /// is first advanced to the slot start, where legacy's step 1 left it.
  void deliver_back_invalidation(const llc::BackInvalidation& binval,
                                 Cycle slot_start) {
    for (CoreId owner : binval.owners) {
      const std::size_t o = static_cast<std::size_t>(owner.value);
      advance_lane(owner.value, slot_start);
      mark_stale(owner.value);
      const mem::ForcedEviction evicted = caches_[o].force_evict(binval.line);
      if (evicted.was_present) {
        PSLLC_ASSERT(!buffers_[o].has_writeback_for(binval.line),
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
          buffers_[o].push_writeback(wb);
        } else {
          (void)llc_.ack_back_invalidation_silent(owner, binval.line,
                                                  slot_start);
        }
      } else if (buffers_[o].has_writeback_for(binval.line)) {
        const bool upgraded =
            buffers_[o].upgrade_writeback_to_forced(binval.line);
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

  /// System::handle_private_victim on flat lane state.
  void handle_private_victim(CoreId owner, const mem::Evicted& victim,
                             Cycle completion) {
    if (victim.dirty) {
      bus::BusMessage wb;
      wb.kind = bus::MessageKind::kWriteBack;
      wb.source = owner;
      wb.line = victim.line;
      wb.carries_dirty_data = true;
      wb.frees_llc_entry = false;
      wb.enqueued_at = completion;
      buffers_[static_cast<std::size_t>(owner.value)].push_writeback(wb);
    } else {
      llc_.notify_silent_eviction(owner, victim.line);
    }
  }

  /// run_system's metric fill, field for field.
  [[nodiscard]] RunMetrics fill_metrics(bool completed, Cycle end_cycle) const {
    RunMetrics metrics;
    metrics.completed = completed;
    metrics.end_cycle = end_cycle;
    metrics.analytical_wcl = core::analytical_wcl_cycles(setup_, CoreId{0});
    metrics.transient_analytical_wcl =
        core::transient_wcl_cycles(setup_, CoreId{0});
    metrics.observed_transient_wcl = observed_transient_wcl_;
    metrics.llc_requests = tracker_.completed_requests();
    metrics.observed_wcl =
        tracker_.completed_requests() > 0 ? tracker_.max_service_latency() : 0;
    const int n = config_.num_cores;
    metrics.per_core_finish.reserve(static_cast<std::size_t>(n));
    Cycle makespan = 0;
    for (int l = 0; l < n; ++l) {
      const std::size_t s = static_cast<std::size_t>(l);
      const bool trace_done = blocked_[s] == 0 && pc_[s] >= lane_size_[s];
      metrics.per_core_finish.push_back(trace_done ? finish_time_[s]
                                                   : kNoCycle);
      metrics.per_core_l1_hits.push_back(caches_[s].l1_hits());
      metrics.per_core_l2_hits.push_back(caches_[s].l2_hits());
      metrics.per_core_misses.push_back(caches_[s].misses());
      makespan = std::max(makespan, finish_time_[s]);
    }
    if (completed) {
      metrics.makespan = makespan;
    }
    metrics.llc_stats = llc_.stats();
    metrics.memory = memory_.counters();
    metrics.dram_reads = metrics.memory.reads;
    metrics.dram_writes = metrics.memory.writes;
    return metrics;
  }

  const core::ExperimentSetup& setup_;
  const core::SystemConfig& config_;
  bus::TdmSchedule schedule_;
  Backend memory_;
  llc::BasicPartitionedLlc<Backend> llc_;
  core::RequestTracker tracker_;
  Cycle observed_transient_wcl_ = kNoCycle;
  /// Drain back-invalidations of the current slot (reused every slot).
  std::vector<llc::BackInvalidation> transition_invals_;

  // Slot clock (fixed by start(), advanced by run_to_horizon()).
  std::int64_t horizon_ = 0;
  Cycle deepest_ = 0;
  std::int64_t cur_slot_ = 0;
  std::int64_t last_action_slot_ = -1;

  // Hot-path TDM geometry, built once in the constructor: exact divisors
  // for the slot width and the period, and the delta to the next slot
  // owned by a core, indexed by core * period + (slot % period).
  std::int64_t period_ = 0;
  InvariantDivisor slot_div_;
  InvariantDivisor period_div_;
  std::vector<std::int64_t> next_owned_delta_;

  // Struct-of-arrays lane state (one entry per core).
  std::vector<LaneCursor> cursors_;
  std::vector<std::uint64_t> pc_;
  std::vector<std::uint64_t> lane_size_;
  std::vector<std::int64_t> candidate_;  ///< cached candidate slot per lane
  std::uint64_t stale_ = 0;  ///< bit l: lane l's candidate needs a refresh
  std::vector<Cycle> next_ready_;
  std::vector<Cycle> finish_time_;
  std::vector<std::int64_t> done_slot_;  ///< slot where all_done sees the lane
  std::vector<unsigned char> gap_applied_;
  std::vector<unsigned char> blocked_;
  std::vector<Addr> out_addr_;          ///< outstanding request address
  std::vector<AccessType> out_type_;    ///< outstanding request access type
  std::vector<mem::PrivateCacheHierarchy> caches_;
  std::vector<bus::PendingBuffers> buffers_;
};

}  // namespace psllc::sim::detail

#endif  // PSLLC_SIM_REPLAY_KERNEL_H_
