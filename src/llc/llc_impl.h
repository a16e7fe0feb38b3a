// Member definitions of llc::BasicPartitionedLlc. Included at the bottom
// of llc.h only — the bodies are shared verbatim by every backend
// instantiation (the virtual conformance path and the kernel's
// devirtualized concrete paths), which is what keeps the two bit-identical
// by construction.
#ifndef PSLLC_LLC_LLC_IMPL_H_
#define PSLLC_LLC_LLC_IMPL_H_

#ifndef PSLLC_LLC_LLC_H_
#error "llc_impl.h must be included via llc/llc.h"
#endif

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.h"

namespace psllc::llc {

/// True when way `way` is in the way mask `mask`.
[[nodiscard]] constexpr bool has_way(std::uint64_t mask, int way) {
  return ((mask >> way) & 1U) != 0;
}

template <typename Memory>
BasicPartitionedLlc<Memory>::BasicPartitionedLlc(const LlcConfig& config,
                                                 PartitionProgram program,
                                                 ContentionMode mode,
                                                 int num_cores, Memory& memory)
    : config_(config),
      program_(std::move(program)),
      mode_(mode),
      memory_(&memory),
      sequencer_(num_cores, num_cores),
      pending_(static_cast<std::size_t>(num_cores)),
      core_drain_busy_(static_cast<std::size_t>(num_cores), 0) {
  config_.validate();
  PSLLC_CONFIG_CHECK(num_cores > 0, "need >=1 core");
  PSLLC_CONFIG_CHECK(num_cores <= InclusiveDirectory::kMaxCores,
                     "at most " << InclusiveDirectory::kMaxCores
                                << " cores supported, got " << num_cores);
  PSLLC_CONFIG_CHECK(program_.num_modes() > 0, "partition program is empty");
  PSLLC_CONFIG_CHECK(
      program_.geometry().num_sets == config_.geometry.num_sets &&
          program_.geometry().num_ways == config_.geometry.num_ways &&
          program_.geometry().line_bytes == config_.geometry.line_bytes,
      "partition program geometry differs from LLC geometry");
  // Set s's replacement stream is seeded with mix_seed(seed, s, 0x11c).
  sets_ = mem::SetStore(config_.geometry.num_sets, config_.geometry.num_ways,
                        config_.replacement, config_.seed, 0x11c);
  set_states_.resize(static_cast<std::size_t>(config_.geometry.num_sets));
  const auto capacity =
      static_cast<std::size_t>(config_.geometry.capacity_lines());
  entry_states_.resize(capacity);
  // By inclusion every line with a private copy is resident, so the LLC's
  // capacity bounds the directory.
  directory_ = InclusiveDirectory(config_.geometry.capacity_lines());
  routes_.resize(static_cast<std::size_t>(num_cores));
  compute_routes(routes_);
  if (!program_.is_static()) {
    // At most every resident line drains in one transition.
    drain_queue_.reserve(capacity);
    draining_lines_.reserve(capacity);
    transition_windows_.reserve(
        static_cast<std::size_t>(program_.num_modes() - 1));
  }
}

template <typename Memory>
BasicPartitionedLlc<Memory>::BasicPartitionedLlc(const LlcConfig& config,
                                                 PartitionMap partitions,
                                                 ContentionMode mode,
                                                 int num_cores, Memory& memory)
    : BasicPartitionedLlc(config, PartitionProgram(std::move(partitions)),
                          mode, num_cores, memory) {}

template <typename Memory>
void BasicPartitionedLlc<Memory>::compute_routes(
    std::vector<Route>& routes) const {
  const PartitionMap& map = partitions();
  for (std::size_t c = 0; c < routes.size(); ++c) {
    routes[c] = Route{};
    const int pid = map.partition_of(CoreId{static_cast<int>(c)});
    if (pid < 0) {
      continue;
    }
    routes[c].partition = pid;
    routes[c].spec = map.spec(pid);
    for (const CoreId sharer : map.sharers(pid)) {
      // Sharers beyond num_cores never request; they stay out of the mask.
      if (sharer.value < static_cast<int>(routes.size())) {
        routes[c].cores |= std::uint64_t{1} << sharer.value;
      }
    }
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::rebuild_pending_cores() {
  for (SetState& state : set_states_) {
    state.pending_cores = 0;
  }
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    if (pending_[c]) {
      set_state_at(pending_[c]->physical_set).pending_cores |=
          std::uint64_t{1} << c;
    }
  }
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::EntryState&
BasicPartitionedLlc<Memory>::entry_state(int physical_set, int way) {
  return entry_states_[static_cast<std::size_t>(physical_set) *
                           static_cast<std::size_t>(config_.geometry.num_ways) +
                       static_cast<std::size_t>(way)];
}

template <typename Memory>
const typename BasicPartitionedLlc<Memory>::EntryState&
BasicPartitionedLlc<Memory>::entry_state(int physical_set, int way) const {
  return entry_states_[static_cast<std::size_t>(physical_set) *
                           static_cast<std::size_t>(config_.geometry.num_ways) +
                       static_cast<std::size_t>(way)];
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way_raw(const PartitionSpec& spec,
                                              int physical_set,
                                              LineAddr line) const {
  return sets_.find(physical_set, line, spec.first_way, spec.num_ways);
}

template <typename Memory>
std::uint64_t BasicPartitionedLlc<Memory>::free_ways_mask(
    const PartitionSpec& spec, int physical_set) const {
  return ~sets_.valid_mask(physical_set) &
         ~set_state_at(physical_set).frozen &
         mem::way_range_mask(spec.first_way, spec.num_ways);
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_free_way(const PartitionSpec& spec,
                                               int physical_set) const {
  const std::uint64_t free = free_ways_mask(spec, physical_set);
  return free == 0 ? -1 : std::countr_zero(free);
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::Contention
BasicPartitionedLlc<Memory>::contention(const Route& route,
                                        int physical_set) const {
  const SetState& state = set_state_at(physical_set);
  const std::uint64_t range =
      mem::way_range_mask(route.spec.first_way, route.spec.num_ways);
  // Draining entries count as supply too: the drain frees them, and the
  // fence (which cannot outlast the drain) unfreezes their slots.
  const std::uint64_t leaving = (state.pending_inval | state.draining) & range;
  return Contention{
      std::popcount(state.pending_cores & route.cores),
      std::popcount(free_ways_mask(route.spec, physical_set)) +
          std::popcount(leaving),
      sets_.valid_mask(physical_set) & range & ~leaving};
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::Contention
BasicPartitionedLlc<Memory>::recount_contention(const Route& route,
                                                int physical_set) const {
  Contention counted;
  for (const auto& pending : pending_) {
    if (pending && pending->partition == route.partition &&
        pending->physical_set == physical_set) {
      ++counted.demand;
    }
  }
  const SetState& state = set_state_at(physical_set);
  for (int w = route.spec.first_way;
       w < route.spec.first_way + route.spec.num_ways; ++w) {
    // Outstanding acks are the per-entry witness of a pending invalidation.
    const bool leaving = entry_state(physical_set, w).pending_acks > 0 ||
                         has_way(state.draining, w);
    if (!sets_.way(physical_set, w).valid()) {
      counted.supply += has_way(state.frozen, w) ? 0 : 1;
    } else if (leaving) {
      ++counted.supply;
    } else {
      counted.evictable |= std::uint64_t{1} << w;
    }
  }
  return counted;
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::may_allocate(SetKey key, CoreId core) const {
  if (mode_ == ContentionMode::kBestEffort) {
    return true;
  }
  // Set sequencer: FIFO order. A core may allocate iff nobody is queued
  // (no contention so far) or it is at the head of the queue. A queued core
  // implies a queue, so only an unqueued core needs the QLT lookup.
  if (sequencer_.is_queued(key, core)) {
    return sequencer_.is_head(key, core);
  }
  return !sequencer_.has_queue(key);
}

template <typename Memory>
RequestOutcome BasicPartitionedLlc<Memory>::handle_request(CoreId core,
                                                           LineAddr line,
                                                           Cycle now,
                                                           AccessType access) {
  const std::uint64_t core_bit = std::uint64_t{1} << core.value;
  if (is_write(access)) {
    // Writing a line that other cores privately cache needs a coherence
    // protocol, which the paper's model excludes (tasks are data-disjoint).
    const std::uint64_t others = directory_.sharer_mask(line) & ~core_bit;
    if (others != 0) {
      ++stats_.shared_write_flags;
      PSLLC_WARN("write by " << to_string(core) << " to line 0x" << std::hex
                             << line << std::dec << " shared by "
                             << std::popcount(others)
                             << " other core(s) — outside the paper's "
                                "data-disjoint model");
    }
  }
  const Route& route = route_of(core);
  const int pid = route.partition;
  const PartitionSpec& spec = route.spec;
  const int pset = spec.map_set(line);
  PSLLC_AUDIT(spec.contains_set(pset),
              "mapped set " << pset << " escapes partition " << pid << " "
                            << spec.to_string());
  const SetKey key{pid, pset};
  SetState& set_state = set_state_at(pset);

  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  if (pending) {
    PSLLC_ASSERT(pending->line == line,
                 to_string(core)
                     << " retried a different line: pending 0x" << std::hex
                     << pending->line << " vs 0x" << line
                     << " (one outstanding request per core)");
  }

  // --- hit path --- (draining entries are on their way out of the cache
  // and must not serve hits: the requester waits for the fresh fill)
  const int hit_way = find_way_raw(spec, pset, line);
  if (hit_way >= 0 &&
      !has_way(set_state.pending_inval | set_state.draining, hit_way)) {
    sets_.touch(pset, hit_way);
    if (!directory_.is_shared_by(line, core)) {
      directory_.add_sharer(line, core);
    }
    if (pending) {
      complete_pending(core, key);
    }
    ++stats_.hit_presentations;
    return RequestOutcome{RequestOutcome::Status::kHit, std::nullopt};
  }

  // --- miss path ---
  if (!pending) {
    pending = Pending{line, pid, pset, now};
    set_state.pending_cores |= core_bit;
  }

  RequestOutcome outcome;
  // One eviction attempt per presentation, then (re-)check allocation: an
  // eviction of an unshared victim frees the entry within the slot.
  bool eviction_attempted = false;
  for (;;) {
    // Allocation requires a free way, permission from the contention mode,
    // and no stale copy of the same line still draining out of the set
    // (pending invalidation) — nor out of a pre-transition location
    // elsewhere in the cache (draining_lines_). The hit lookup stays exact
    // for the whole loop: the only way the loop frees is an evictable one
    // (valid, neither pending nor draining), and had `line` sat in such a
    // way the presentation would have hit above.
    const int way = find_free_way(spec, pset);
    if (way >= 0 && may_allocate(key, core) && hit_way < 0 &&
        !is_draining_line(line)) {
      PSLLC_AUDIT(spec.contains_way(way),
                  "allocated way " << way << " escapes partition " << pid
                                   << " " << spec.to_string());
      sets_.insert(pset, line, way, mem::LineState::kClean);
      directory_.add_sharer(line, core);
      // Fetch from the backing store; latency is absorbed by the slot
      // (validated by the system configuration against the backend's
      // worst_case_latency()).
      (void)memory_->read(line, now);
      // Steal accounting: did we allocate past an older waiter of this
      // (partition, set)?
      for (const CoreId other :
           CoreMask(set_state.pending_cores & route.cores & ~core_bit)) {
        const Pending& waiter =
            *pending_[static_cast<std::size_t>(other.value)];
        if (waiter.line != line &&
            waiter.first_presented < pending->first_presented) {
          ++stats_.steals;
          break;
        }
      }
      complete_pending(core, key);
      ++stats_.fills;
      outcome.status = RequestOutcome::Status::kFilled;
      return outcome;
    }
    if (eviction_attempted) {
      break;
    }
    eviction_attempted = true;

    // Enqueue in the sequencer before deciding on evictions, so arrival
    // order is recorded on the first blocked presentation.
    if (mode_ == ContentionMode::kSetSequencer &&
        !sequencer_.is_queued(key, core)) {
      sequencer_.enqueue(key, core);
    }

    const Contention counts = contention(route, pset);
    PSLLC_AUDIT(counts == recount_contention(route, pset),
                "contention masks of partition "
                    << pid << " at set " << pset
                    << " diverged from the recount: demand " << counts.demand
                    << ", supply " << counts.supply << ", evictable 0x"
                    << std::hex << counts.evictable);
    if (counts.supply >= counts.demand) {
      break;  // enough entries already free or on their way
    }
    // Select a victim among valid ways of this partition that are neither
    // pending invalidation nor draining.
    if (counts.evictable == 0) {
      break;  // every line is already being evicted
    }
    const int victim = sets_.select_victim(pset, counts.evictable);
    PSLLC_ASSERT(victim >= 0, "victim selection failed with eligible ways");
    PSLLC_AUDIT(spec.contains_way(victim),
                "victim way " << victim << " escapes partition " << pid << " "
                              << spec.to_string());
    const mem::LineMeta victim_meta = sets_.way(pset, victim);
    const LineAddr victim_line = victim_meta.line;
    const CoreMask owners(directory_.sharer_mask(victim_line));
    ++stats_.evictions_started;
    if (owners.empty()) {
      // No private copies: the entry is reusable within this slot; dirty
      // data drains to DRAM off the critical path.
      if (victim_meta.dirty()) {
        (void)memory_->write(victim_line, now);
      }
      sets_.invalidate(pset, victim);
      ++stats_.immediate_frees;
      continue;  // re-check allocation with the freed way
    }
    set_state.pending_inval |= std::uint64_t{1} << victim;
    entry_state(pset, victim).pending_acks = static_cast<int>(owners.size());
    outcome.back_invalidation = BackInvalidation{victim_line, owners};
    PSLLC_TRACE("LLC: evicting 0x" << std::hex << victim_line << std::dec
                                   << " (set " << pset << ", way " << victim
                                   << ") for " << to_string(core)
                                   << ", owners=" << owners.size());
    break;
  }

  ++stats_.blocked_presentations;
  outcome.status = RequestOutcome::Status::kBlocked;
  return outcome;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::complete_pending(CoreId core, SetKey key) {
  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(pending.has_value(), "no pending request to complete");
  if (mode_ == ContentionMode::kSetSequencer &&
      sequencer_.is_queued(key, core)) {
    if (sequencer_.is_head(key, core)) {
      sequencer_.dequeue_head(key, core);
    } else {
      // Satisfied out of order (e.g. hit after another sharer fetched the
      // line); remove from the middle.
      sequencer_.remove(key, core);
    }
  }
  set_state_at(pending->physical_set).pending_cores &=
      ~(std::uint64_t{1} << core.value);
  pending.reset();
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::clear_entry_marks(int physical_set,
                                                    int way) {
  SetState& state = set_state_at(physical_set);
  state.pending_inval &= ~(std::uint64_t{1} << way);
  state.draining &= ~(std::uint64_t{1} << way);
  entry_state(physical_set, way) = EntryState{};
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::handle_writeback(
    CoreId core, LineAddr line, bool carries_dirty_data, bool frees_entry,
    Cycle now) {
  if (frees_entry) {
    ++stats_.freeing_writebacks;
    return apply_back_inval_ack(core, line, carries_dirty_data, now);
  }
  ++stats_.voluntary_writebacks;
  const PartitionSpec& spec = route_of(core).spec;
  int pset = spec.map_set(line);
  int way = find_way_raw(spec, pset, line);
  if (way < 0) {
    // A write-back queued before a mode switch may target a line still
    // resident at its pre-transition location.
    const auto [fallback_set, fallback_way] = locate_line(line);
    pset = fallback_set;
    way = fallback_way;
  }
  PSLLC_ASSERT(way >= 0, "voluntary write-back for line 0x"
                             << std::hex << line
                             << " absent from inclusive LLC");
  PSLLC_ASSERT(!has_way(set_state_at(pset).pending_inval, way),
               "voluntary write-back raced a back-invalidation for line 0x"
                   << std::hex << line
                   << " — should have been upgraded to freeing");
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core) << " wrote back line 0x" << std::hex
                                        << line << " it did not share");
  if (carries_dirty_data) {
    sets_.mark_dirty(pset, way);
  }
  return WritebackOutcome{false};
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::apply_back_inval_ack(
    CoreId core, LineAddr line, bool dirty_data, Cycle now) {
  const PartitionSpec& spec = route_of(core).spec;
  int pset = spec.map_set(line);
  int way = find_way_raw(spec, pset, line);
  if (way < 0) {
    // Acks for drain invalidations (and for evictions started before a
    // mode switch) may reference pre-transition locations.
    const auto [fallback_set, fallback_way] = locate_line(line);
    pset = fallback_set;
    way = fallback_way;
  }
  PSLLC_ASSERT(way >= 0, "back-invalidation ack for line 0x"
                             << std::hex << line << " not in LLC");
  EntryState& state = entry_state(pset, way);
  const SetState& set_state = set_state_at(pset);
  PSLLC_ASSERT(has_way(set_state.pending_inval, way),
               "ack for line 0x" << std::hex << line
                                 << " that is not pending invalidation");
  PSLLC_ASSERT(state.pending_acks > 0, "pending_acks underflow");
  if (state.drain_issued) {
    auto& busy = core_drain_busy_[static_cast<std::size_t>(core.value)];
    PSLLC_ASSERT(busy > 0, "drain ack without an outstanding drain inval");
    --busy;
  }
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core)
                            << " acked line 0x" << std::hex << line
                            << " it did not share");
  if (dirty_data) {
    sets_.mark_dirty(pset, way);
  }
  --state.pending_acks;
  if (state.pending_acks > 0) {
    return WritebackOutcome{false};
  }
  // Last ack: the entry becomes free. Dirty data drains to DRAM.
  PSLLC_ASSERT(directory_.sharer_count(line) == 0,
               "directory still has sharers after the last ack");
  if (has_way(set_state.draining, way)) {
    free_drained_entry(pset, way, now);
  } else {
    if (sets_.way(pset, way).dirty()) {
      (void)memory_->write(line, now);
    }
    sets_.invalidate(pset, way);
    clear_entry_marks(pset, way);
  }
  return WritebackOutcome{true};
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::notify_silent_eviction(CoreId core,
                                                         LineAddr line) {
  const bool removed = directory_.remove_sharer(line, core);
  PSLLC_ASSERT(removed, to_string(core)
                            << " silently evicted line 0x" << std::hex << line
                            << " it did not share");
}

template <typename Memory>
WritebackOutcome BasicPartitionedLlc<Memory>::ack_back_invalidation_silent(
    CoreId core, LineAddr line, Cycle now) {
  return apply_back_inval_ack(core, line, /*dirty_data=*/false, now);
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::drop_pending_request(CoreId core) {
  auto& pending = pending_[static_cast<std::size_t>(core.value)];
  if (!pending) {
    return;
  }
  const SetKey key{pending->partition, pending->physical_set};
  if (mode_ == ContentionMode::kSetSequencer &&
      sequencer_.is_queued(key, core)) {
    sequencer_.remove(key, core);
  }
  set_state_at(pending->physical_set).pending_cores &=
      ~(std::uint64_t{1} << core.value);
  pending.reset();
}

template <typename Memory>
typename BasicPartitionedLlc<Memory>::EntryView
BasicPartitionedLlc<Memory>::entry(int physical_set, int way) const {
  const mem::LineMeta meta = sets_.way(physical_set, way);
  EntryView view;
  view.valid = meta.valid();
  if (view.valid) {
    view.line = meta.line;
    view.dirty = meta.dirty();
    view.pending_inval = has_way(set_state_at(physical_set).pending_inval, way);
    view.pending_acks = entry_state(physical_set, way).pending_acks;
    view.sharers = directory_.sharers(meta.line);
  }
  return view;
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::find_way(CoreId core, LineAddr line) const {
  const PartitionSpec& spec = route_of(core).spec;
  return find_way_raw(spec, spec.map_set(line), line);
}

template <typename Memory>
int BasicPartitionedLlc<Memory>::free_ways(CoreId core, LineAddr line) const {
  const PartitionSpec& spec = route_of(core).spec;
  return std::popcount(free_ways_mask(spec, spec.map_set(line)));
}

template <typename Memory>
SetKey BasicPartitionedLlc<Memory>::key_for(CoreId core, LineAddr line) const {
  const Route& route = route_of(core);
  return SetKey{route.partition, route.spec.map_set(line)};
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::has_pending_request(CoreId core) const {
  return pending_[static_cast<std::size_t>(core.value)].has_value();
}

template <typename Memory>
LineAddr BasicPartitionedLlc<Memory>::pending_line(CoreId core) const {
  const auto& pending = pending_[static_cast<std::size_t>(core.value)];
  PSLLC_ASSERT(pending.has_value(), "no pending request");
  return pending->line;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::preload(LineAddr line,
                                          const std::vector<CoreId>& sharers,
                                          bool dirty) {
  // Map through the partition of the first sharer, or partition 0 when the
  // line has no private copies.
  const int pid = sharers.empty() ? 0 : route_of(sharers.front()).partition;
  const PartitionSpec& spec = partitions().spec(pid);
  const int pset = spec.map_set(line);
  PSLLC_ASSERT(find_way_raw(spec, pset, line) < 0,
               "preload of already-present line");
  const int way = find_free_way(spec, pset);
  PSLLC_ASSERT(way >= 0, "preload into a full set");
  sets_.insert(pset, line, way,
               dirty ? mem::LineState::kDirty : mem::LineState::kClean);
  for (CoreId c : sharers) {
    PSLLC_ASSERT(partitions().partition_of(c) == pid,
                 "preload sharers must share one partition");
    directory_.add_sharer(line, c);
  }
}

// --- mode-transition protocol ------------------------------------------

template <typename Memory>
std::pair<int, int> BasicPartitionedLlc<Memory>::locate_line(
    LineAddr line) const {
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    const int w = sets_.find(s, line);
    if (w >= 0) {
      return {s, w};
    }
  }
  return {-1, -1};
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::entry_compatible(int physical_set,
                                                   int way) const {
  const mem::LineMeta meta = sets_.way(physical_set, way);
  PSLLC_ASSERT(meta.valid(), "compatibility check on an invalid entry");
  const PartitionMap& map = partitions();
  for (int p = 0; p < map.num_partitions(); ++p) {
    const PartitionSpec& spec = map.spec(p);
    if (!spec.contains_set(physical_set) || !spec.contains_way(way)) {
      continue;
    }
    if (spec.map_set(meta.line) != physical_set) {
      return false;  // placed where the new mapping would not place it
    }
    for (const CoreId sharer : CoreMask(directory_.sharer_mask(meta.line))) {
      if (map.partition_of(sharer) != p) {
        return false;  // privately held by a core outside this partition
      }
    }
    return true;
  }
  return false;  // no partition covers this slot in the new mode
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::advance_transition(
    Cycle slot_start, std::vector<BackInvalidation>& out) {
  if (program_.is_static()) {
    return;  // static programs never transition (the common fast path)
  }
  if (!transition_active_) {
    const Cycle epoch = next_transition_epoch();
    if (epoch == kNoCycle || slot_start < epoch) {
      return;
    }
    begin_transition(slot_start);
  }
  pump_drain(slot_start, out);
  if (drain_remaining_ == 0) {
    complete_transition(slot_start);
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::begin_transition(Cycle slot_start) {
  ++mode_index_;
  ++stats_.repartitions;
  transition_active_ = true;
  transition_windows_.emplace_back(slot_start, kNoCycle);

  // Freeze every slot whose covering (rectangle, sharers) assignment
  // changed between the two modes; arriving ways become allocatable only
  // at the drain fence.
  const PartitionMap& from = program_.mode(mode_index_ - 1).map;
  const PartitionMap& to = program_.mode(mode_index_).map;
  auto covering = [](const PartitionMap& map, int s, int w) {
    for (int p = 0; p < map.num_partitions(); ++p) {
      if (map.spec(p).contains_set(s) && map.spec(p).contains_way(w)) {
        return p;
      }
    }
    return -1;
  };
  auto assignment_changed = [&](int s, int w) {
    const int fp = covering(from, s, w);
    const int tp = covering(to, s, w);
    if ((fp < 0) != (tp < 0)) {
      return true;
    }
    if (fp < 0) {
      return false;  // uncovered in both modes
    }
    return from.spec(fp) != to.spec(tp) || from.sharers(fp) != to.sharers(tp);
  };
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (assignment_changed(s, w)) {
        set_state_at(s).frozen |= std::uint64_t{1} << w;
      }
    }
  }

  // Classify residents: incompatible lines must drain. Scan order (set-
  // major, way-minor) fixes the drain issue order deterministically.
  drain_queue_.clear();
  draining_lines_.clear();
  drain_remaining_ = 0;
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (!sets_.way(s, w).valid() || entry_compatible(s, w)) {
        continue;
      }
      set_state_at(s).draining |= std::uint64_t{1} << w;
      // Evictions already in flight keep their issued acks; the drain
      // only adopts them (drain_issued stays false — their owners were
      // charged by the original eviction, not the drain serializer).
      drain_queue_.emplace_back(s, w);
      draining_lines_.push_back(sets_.way(s, w).line);
      ++drain_remaining_;
    }
  }
  std::sort(draining_lines_.begin(), draining_lines_.end());
  draining_lines_.erase(
      std::unique(draining_lines_.begin(), draining_lines_.end()),
      draining_lines_.end());

  // The mode's partition ids renumber SetKeys: reset ordering state and
  // re-anchor every pending request under the new map. Blocked cores
  // re-enqueue deterministically at their next presentation.
  compute_routes(routes_);
  sequencer_.clear();
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    auto& pending = pending_[c];
    if (!pending) {
      continue;
    }
    const Route& route = route_of(CoreId{static_cast<int>(c)});
    pending->partition = route.partition;
    pending->physical_set = route.spec.map_set(pending->line);
  }
  rebuild_pending_cores();
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::pump_drain(
    Cycle slot_start, std::vector<BackInvalidation>& out) {
  for (const auto& [s, w] : drain_queue_) {
    const mem::LineMeta meta = sets_.way(s, w);
    SetState& set_state = set_state_at(s);
    if (!meta.valid() || !has_way(set_state.draining, w)) {
      continue;  // already freed by an earlier ack or pump
    }
    if (has_way(set_state.pending_inval, w)) {
      continue;  // invalidation in flight (drain-issued or pre-transition)
    }
    const LineAddr line = meta.line;
    const CoreMask owners(directory_.sharer_mask(line));
    if (owners.empty()) {
      // No private copies: free within this slot; dirty data drains
      // through the bounded write queue off the critical path.
      free_drained_entry(s, w, slot_start);
      continue;
    }
    // Serialize drain invalidations per owner core: a core is asked for at
    // most one outstanding drain write-back at a time, so the drain can
    // never flood a core's pending-writeback buffer.
    bool owners_free = true;
    for (const CoreId owner : owners) {
      owners_free = owners_free &&
                    core_drain_busy_[static_cast<std::size_t>(
                        owner.value)] == 0;
    }
    if (!owners_free) {
      continue;
    }
    EntryState& state = entry_state(s, w);
    set_state.pending_inval |= std::uint64_t{1} << w;
    state.pending_acks = static_cast<int>(owners.size());
    state.drain_issued = true;
    for (const CoreId owner : owners) {
      ++core_drain_busy_[static_cast<std::size_t>(owner.value)];
    }
    ++stats_.drain_back_invals;
    out.push_back(BackInvalidation{line, owners});
  }
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::free_drained_entry(int physical_set,
                                                     int way, Cycle now) {
  const mem::LineMeta meta = sets_.way(physical_set, way);
  const LineAddr line = meta.line;
  if (meta.dirty()) {
    (void)memory_->write(line, now);
    ++stats_.drain_writebacks;
    // Drain write-backs go through the same bounded write queue as demand
    // traffic; the per-core serialization above keeps them within it.
    PSLLC_AUDIT(memory_->pending_queue_depth() <=
                    memory_->config().wq_capacity,
                "drain write-backs overflowed the write queue: "
                    << memory_->pending_queue_depth() << " > "
                    << memory_->config().wq_capacity);
  }
  sets_.invalidate(physical_set, way);
  clear_entry_marks(physical_set, way);
  const auto it =
      std::lower_bound(draining_lines_.begin(), draining_lines_.end(), line);
  if (it != draining_lines_.end() && *it == line) {
    draining_lines_.erase(it);
  }
  PSLLC_ASSERT(drain_remaining_ > 0, "drain_remaining underflow");
  --drain_remaining_;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::complete_transition(Cycle slot_start) {
  PSLLC_ASSERT(transition_active_ && drain_remaining_ == 0,
               "fence before the drain finished");
  for (SetState& state : set_states_) {
    state.frozen = 0;
  }
  drain_queue_.clear();
  PSLLC_ASSERT(draining_lines_.empty(),
               "drained lines left behind at the fence");
  transition_active_ = false;
  transition_windows_.back().second = slot_start;
#ifdef PSLLC_AUDIT_ENABLED
  // Containment after the fence: every resident line (modulo evictions
  // still in flight) sits inside its current mode's rectangle.
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      if (!sets_.way(s, w).valid() ||
          has_way(set_state_at(s).pending_inval, w)) {
        continue;
      }
      PSLLC_AUDIT(entry_compatible(s, w),
                  "line 0x" << std::hex << sets_.way(s, w).line << std::dec
                            << " at set " << s << " way " << w
                            << " outside its mode-" << mode_index_
                            << " rectangle after the drain fence");
    }
  }
#endif
}

template <typename Memory>
bool BasicPartitionedLlc<Memory>::overlaps_transition(Cycle a,
                                                      Cycle b) const {
  for (const auto& [begin, end] : transition_windows_) {
    if (begin <= b && (end == kNoCycle || end >= a)) {
      return true;
    }
  }
  return false;
}

template <typename Memory>
void BasicPartitionedLlc<Memory>::check_invariants() const {
  // Drain bookkeeping: the (set, way) slots listed at the transition's
  // begin; only they may drain, and exactly drain_remaining_ of them do.
  std::vector<std::uint64_t> drain_listed(set_states_.size(), 0);
  for (const auto& [s, w] : drain_queue_) {
    drain_listed[static_cast<std::size_t>(s)] |= std::uint64_t{1} << w;
  }
  int draining_ways = 0;
  for (int s = 0; s < config_.geometry.num_sets; ++s) {
    const SetState& set_state = set_state_at(s);
    const std::uint64_t leaving = set_state.pending_inval | set_state.draining;
    PSLLC_ASSERT((leaving & ~sets_.valid_mask(s)) == 0,
                 "invalid entry with pending eviction state at set " << s);
    PSLLC_ASSERT(
        (set_state.draining & ~drain_listed[static_cast<std::size_t>(s)]) ==
            0,
        "set " << s << " drains a way its transition did not list");
    PSLLC_ASSERT(transition_active_ || set_state.frozen == 0,
                 "set " << s << " frozen outside a transition");
    draining_ways += std::popcount(set_state.draining);
    for (int w = 0; w < config_.geometry.num_ways; ++w) {
      const EntryState& state = entry_state(s, w);
      if (has_way(set_state.pending_inval, w)) {
        PSLLC_ASSERT(state.pending_acks > 0,
                     "pending invalidation without outstanding acks");
        PSLLC_ASSERT(state.pending_acks ==
                         directory_.sharer_count(sets_.way(s, w).line),
                     "pending_acks diverged from directory sharers for "
                     "line 0x" << std::hex << sets_.way(s, w).line);
      } else {
        PSLLC_ASSERT(state.pending_acks == 0,
                     "acks outstanding without pending invalidation at set "
                         << s << " way " << w);
      }
    }
  }
  PSLLC_ASSERT(draining_ways == drain_remaining_,
               draining_ways << " draining ways but " << drain_remaining_
                             << " drains outstanding");
  // Per-set pending-core masks match pending_, and every pending request is
  // anchored where its core's route maps its line.
  std::vector<std::uint64_t> pending_cores(set_states_.size(), 0);
  for (std::size_t c = 0; c < pending_.size(); ++c) {
    if (const auto& pending = pending_[c]) {
      const Route& route = routes_[c];
      PSLLC_ASSERT(pending->partition == route.partition &&
                       pending->physical_set ==
                           route.spec.map_set(pending->line),
                   "c" << c << " pending at (partition " << pending->partition
                       << ", set " << pending->physical_set
                       << ") off its route");
      pending_cores[static_cast<std::size_t>(pending->physical_set)] |=
          std::uint64_t{1} << c;
    }
  }
  for (std::size_t s = 0; s < set_states_.size(); ++s) {
    PSLLC_ASSERT(set_states_[s].pending_cores == pending_cores[s],
                 "pending-core mask of set " << s << " is 0x" << std::hex
                                             << set_states_[s].pending_cores
                                             << ", pending_ gives 0x"
                                             << pending_cores[s]);
  }
  // The route table is the active map's.
  std::vector<Route> routes(routes_.size());
  compute_routes(routes);
  for (std::size_t c = 0; c < routes.size(); ++c) {
    PSLLC_ASSERT(routes_[c] == routes[c],
                 "route of c" << c << " is stale for mode " << mode_index_);
  }
  // Every sequencer waiter must have a pending request under the queue's
  // key. (A pending request is queued only after its first blocked
  // presentation, so an unqueued pending request is legal.)
  for (const auto& [key, cores] : sequencer_.canonical()) {
    for (const CoreId c : cores) {
      const auto& pending = pending_[static_cast<std::size_t>(c.value)];
      PSLLC_ASSERT(pending.has_value(),
                   to_string(c) << " queued at set " << key.physical_set
                                << " without a pending request");
      PSLLC_ASSERT((SetKey{pending->partition, pending->physical_set} == key),
                   to_string(c) << " queued at (partition " << key.partition
                                << ", set " << key.physical_set
                                << ") but pending at (partition "
                                << pending->partition << ", set "
                                << pending->physical_set << ")");
    }
  }
  // Inclusion: every line with a private copy is resident in the LLC.
  directory_.for_each_line([this](LineAddr line, std::uint64_t) {
    PSLLC_ASSERT(locate_line(line).first >= 0,
                 "directory tracks line 0x" << std::hex << line
                                            << " absent from the LLC");
  });
}

// --- lane replay support -------------------------------------------------

template <typename Memory>
void BasicPartitionedLlc<Memory>::adopt_solo_lane(
    const BasicPartitionedLlc& solo, CoreId core) {
  const PartitionSpec& spec = route_of(core).spec;
  // Composition is gated on set-disjoint partitions, so the whole set rows
  // of `core`'s partition belong to this lane alone.
  sets_.copy_sets(solo.sets_, spec.first_set, spec.num_sets);
  // The rows' per-set masks come along, pending-core bits included: the
  // only pending request in them is `core`'s.
  std::copy_n(solo.set_states_.begin() + spec.first_set, spec.num_sets,
              set_states_.begin() + spec.first_set);
  const auto row = static_cast<std::ptrdiff_t>(config_.geometry.num_ways);
  std::copy_n(solo.entry_states_.begin() + spec.first_set * row,
              spec.num_sets * row, entry_states_.begin() + spec.first_set * row);
  pending_[static_cast<std::size_t>(core.value)] =
      solo.pending_[static_cast<std::size_t>(core.value)];
  directory_.absorb(solo.directory_);
  // Re-enqueue through the canonical form: physical QLT/queue slots are
  // allocation-history artifacts the composed state need not reproduce.
  for (const auto& [key, cores] : solo.sequencer_.canonical()) {
    for (const CoreId c : cores) {
      sequencer_.enqueue(key, c);
    }
  }
  stats_ += solo.stats_;
}

}  // namespace psllc::llc

#endif  // PSLLC_LLC_LLC_IMPL_H_
