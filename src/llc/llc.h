// The shared, partitioned, inclusive last-level cache (paper Section 3).
//
// The LLC services one bus message per TDM slot:
//  * requests — hit (respond in slot), fill (allocate a free entry, fetch
//    from DRAM, respond in slot), or block (set full / not at the head of
//    the set-sequencer queue);
//  * write-backs — voluntary (dirty private victim, data merge) or freeing
//    (answer to a back-invalidation; the entry becomes free when the last
//    sharer's write-back arrives).
//
// Eviction trigger rule (reconstructed from Figures 3 and 4 slot-by-slot):
// a blocked request presentation triggers at most one new eviction, and only
// when  free_entries + in_flight_evictions < pending_requests  for that
// (partition, set). Victims already pending invalidation are ineligible.
// A victim with no private sharers is freed immediately (dirty data drains
// to DRAM off the critical path); a victim with sharers starts a
// back-invalidation that the *system* delivers to the owning cores — their
// forced write-backs later free the entry.
//
// Contention modes: kBestEffort (the paper's NSS — any pending requester
// whose slot arrives first claims a freed entry, so the analysis' distance
// can increase, Observation 3) and kSetSequencer (the paper's SS — FIFO
// arrival order enforced by the set sequencer, Theorem 4.8).
//
// Contention state is kept incrementally per physical set, the way the
// sequencer's hardware would hold it in registers (Sec. 4.5): way masks of
// the entries pending invalidation, the entries draining after a mode
// switch and the frozen ways, plus a mask of the cores whose pending
// request maps to the set. Partitions may share a physical set with
// disjoint way ranges, so demand is the pending-core mask ANDed with the
// requester's partition cores; supply and the eviction candidates are way
// masks ANDed with its way range. A per-core route (partition id, its
// rectangle by value, its sharer mask), rebuilt at construction and at
// every mode switch, serves every request, write-back and ack without a
// partition lookup. check_invariants() recomputes the pending-core masks
// and the routes from scratch; audit builds also recount demand, supply
// and the candidates core by core and way by way on every eviction
// decision.
//
// The class is a template over the memory-backend type. The default
// instantiation (`PartitionedLlc`, Memory = mem::MemoryBackend) dispatches
// DRAM accesses virtually and is the conformance path used by core::System;
// the replay kernel (sim/kernel.h) instantiates it against each concrete
// `final` backend so the compiler devirtualizes and inlines the fill/drain
// calls on the hot path. Both instantiations execute the same member bodies
// (llc_impl.h), so behavior is identical by construction.
#ifndef PSLLC_LLC_LLC_H_
#define PSLLC_LLC_LLC_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/types.h"
#include "llc/directory.h"
#include "llc/partition.h"
#include "llc/set_sequencer.h"
#include "mem/memory_backend.h"
#include "mem/set_store.h"

namespace psllc::llc {

/// How contending requests to a shared partition are ordered.
enum class ContentionMode : std::uint8_t {
  kSetSequencer,  ///< the paper's SS
  kBestEffort,    ///< the paper's NSS
};

[[nodiscard]] constexpr const char* to_string(ContentionMode m) {
  return m == ContentionMode::kSetSequencer ? "SS" : "NSS";
}

struct LlcConfig {
  mem::CacheGeometry geometry{32, 16, 64};  // paper §5: 16-way, 32 sets
  mem::ReplacementKind replacement = mem::ReplacementKind::kLru;
  Cycle lookup_latency = 5;
  /// Paper mode: a back-invalidation always costs the owner a write-back
  /// slot, even when its private copy is clean (Figures 2-4 show "WB l" for
  /// every eviction). When false, clean owners acknowledge silently.
  bool clean_back_inval_costs_slot = true;
  std::uint64_t seed = 0;

  void validate() const;
};

/// A back-invalidation the system must deliver: every owner evicts `line`
/// from its private caches and answers with a freeing write-back. `owners`
/// is the line's directory sharer mask at the eviction, iterated in
/// ascending core order (the order of InclusiveDirectory::sharers()); being
/// one word, it keeps eviction-starting presentations allocation-free.
struct BackInvalidation {
  LineAddr line = 0;
  CoreMask owners;
};

/// Outcome of presenting a request in the owner's slot.
struct RequestOutcome {
  enum class Status : std::uint8_t {
    kHit,     ///< line present; response within this slot
    kFilled,  ///< free entry allocated + DRAM fetch; response within slot
    kBlocked, ///< cannot complete this slot; request remains pending
  };
  Status status = Status::kBlocked;
  /// Eviction started by this presentation, if any.
  std::optional<BackInvalidation> back_invalidation;

  [[nodiscard]] bool completed() const {
    return status != Status::kBlocked;
  }
};
static_assert(std::is_trivially_copyable_v<RequestOutcome>,
              "request outcomes are returned by value on every presentation");

/// Outcome of a write-back arrival.
struct WritebackOutcome {
  bool freed_entry = false;  ///< the LLC entry became free (last ack)
};

/// LLC statistics. Hoisted to namespace scope so every backend
/// instantiation of BasicPartitionedLlc shares one Stats type — RunMetrics
/// stores it by value regardless of which instantiation produced it.
struct LlcStats {
  std::int64_t hit_presentations = 0;
  std::int64_t blocked_presentations = 0;
  std::int64_t fills = 0;
  std::int64_t evictions_started = 0;
  std::int64_t immediate_frees = 0;
  std::int64_t voluntary_writebacks = 0;
  std::int64_t freeing_writebacks = 0;
  std::int64_t steals = 0;  ///< NSS: allocations past an older waiter
  /// Write requests to lines privately shared by other cores (coherence
  /// would be required; flagged because it is outside the paper's model).
  std::int64_t shared_write_flags = 0;
  // --- dynamic repartitioning (all zero for static programs) ---
  std::int64_t repartitions = 0;        ///< mode transitions begun
  std::int64_t drain_writebacks = 0;    ///< dirty drain lines written to DRAM
  std::int64_t drain_back_invals = 0;   ///< back-invalidations issued by drains

  /// Field-wise sum — lane replay folds per-lane stats.
  LlcStats& operator+=(const LlcStats& other) {
    hit_presentations += other.hit_presentations;
    blocked_presentations += other.blocked_presentations;
    fills += other.fills;
    evictions_started += other.evictions_started;
    immediate_frees += other.immediate_frees;
    voluntary_writebacks += other.voluntary_writebacks;
    freeing_writebacks += other.freeing_writebacks;
    steals += other.steals;
    shared_write_flags += other.shared_write_flags;
    repartitions += other.repartitions;
    drain_writebacks += other.drain_writebacks;
    drain_back_invals += other.drain_back_invals;
    return *this;
  }
};

template <typename Memory = mem::MemoryBackend>
class BasicPartitionedLlc {
 public:
  using Stats = LlcStats;

  /// `memory` (the backing-store model behind the LLC) must outlive the
  /// LLC. `num_cores` sizes pending-request state and the set sequencer.
  BasicPartitionedLlc(const LlcConfig& config, PartitionProgram program,
                      ContentionMode mode, int num_cores, Memory& memory);

  /// Static-map convenience: a single-mode program.
  BasicPartitionedLlc(const LlcConfig& config, PartitionMap partitions,
                      ContentionMode mode, int num_cores, Memory& memory);

  [[nodiscard]] const LlcConfig& config() const { return config_; }
  /// The *currently active* mode's map (mode 0 until the first transition).
  [[nodiscard]] const PartitionMap& partitions() const {
    return program_.mode(mode_index_).map;
  }
  [[nodiscard]] const PartitionProgram& program() const { return program_; }
  [[nodiscard]] ContentionMode mode() const { return mode_; }

  // --- mode-transition protocol ------------------------------------------
  //
  // Both replay engines call advance_transition() at the top of every
  // executed slot, before the bus message is picked. When a mode epoch has
  // been reached it switches the active map, freezes every (set, way) slot
  // whose partition assignment changed, and starts draining incompatible
  // resident lines: ownerless lines are written back to DRAM immediately,
  // privately-owned lines are back-invalidated (one outstanding
  // drain-invalidation per owner core at a time, so forced write-backs
  // cannot overflow the bounded pending-writeback queues). Frozen slots
  // become allocatable only at the drain fence — the slot at which the
  // last incompatible line has left the cache.

  /// Begins/advances any due transition and appends the back-invalidations
  /// the system must deliver to private caches this slot to `out` (a buffer
  /// the caller reuses, so transitions allocate nothing per slot). Returns
  /// at once for static programs.
  void advance_transition(Cycle slot_start,
                          std::vector<BackInvalidation>& out);

  /// True between a transition's begin and its drain fence.
  [[nodiscard]] bool transition_active() const { return transition_active_; }

  /// Epoch of the next not-yet-begun mode, or kNoCycle when none remain.
  [[nodiscard]] Cycle next_transition_epoch() const {
    return mode_index_ + 1 < program_.num_modes()
               ? program_.mode(mode_index_ + 1).start_cycle
               : kNoCycle;
  }

  /// True when [a, b] intersects any transition window (begin..fence, with
  /// a still-open window extending to +inf).
  [[nodiscard]] bool overlaps_transition(Cycle a, Cycle b) const;

  /// Presents `core`'s request for `line` (first time or retry) in its
  /// slot. `access` is used for diagnostics only: a write request to a line
  /// other cores privately share is counted in stats().shared_write_flags
  /// (the paper assumes data-disjoint tasks; a predictable coherence
  /// protocol is out of scope, see DESIGN.md).
  RequestOutcome handle_request(CoreId core, LineAddr line, Cycle now,
                                AccessType access = AccessType::kRead);

  /// A write-back from `core` arrives on the bus. `frees_entry` marks the
  /// answer to a back-invalidation.
  WritebackOutcome handle_writeback(CoreId core, LineAddr line,
                                    bool carries_dirty_data, bool frees_entry,
                                    Cycle now);

  /// Directory update for a silent clean private eviction (no bus slot).
  void notify_silent_eviction(CoreId core, LineAddr line);

  /// Immediate acknowledgement of a back-invalidation without a bus
  /// write-back (clean owner, when !clean_back_inval_costs_slot).
  WritebackOutcome ack_back_invalidation_silent(CoreId core, LineAddr line,
                                                Cycle now);

  /// Abandons `core`'s pending request (trace finished mid-request; also
  /// used by failure-injection tests).
  void drop_pending_request(CoreId core);

  // --- test/introspection interface -------------------------------------

  struct EntryView {
    bool valid = false;
    LineAddr line = 0;
    bool dirty = false;
    bool pending_inval = false;
    int pending_acks = 0;
    std::vector<CoreId> sharers;
  };

  [[nodiscard]] EntryView entry(int physical_set, int way) const;
  /// Way holding `line` within `core`'s partition (valid entries only), or
  /// -1.
  [[nodiscard]] int find_way(CoreId core, LineAddr line) const;
  [[nodiscard]] int free_ways(CoreId core, LineAddr line) const;
  [[nodiscard]] SetKey key_for(CoreId core, LineAddr line) const;
  [[nodiscard]] bool has_pending_request(CoreId core) const;
  [[nodiscard]] LineAddr pending_line(CoreId core) const;
  [[nodiscard]] const SetSequencer& sequencer() const { return sequencer_; }
  [[nodiscard]] const InclusiveDirectory& directory() const {
    return directory_;
  }

  /// Installs `line` as if previously fetched, with the given sharers (test
  /// scenario setup; private caches must be preloaded separately).
  void preload(LineAddr line, const std::vector<CoreId>& sharers, bool dirty);

  /// Model invariant sweep for property tests: pending-ack counts match
  /// directory state, pending flags only on valid lines, sequencer queues
  /// only contain cores with a pending request under that queue's key, and
  /// every line the directory tracks is resident (inclusion). Throws
  /// AssertionError on violation.
  void check_invariants() const;

  // --- statistics --------------------------------------------------------
  [[nodiscard]] const Stats& stats() const { return stats_; }

  // --- lane replay support ------------------------------------------------

  /// Lane-replay merge: grafts `core`'s partition state from a single-lane
  /// solo run into this fresh LLC. Sound only when partitions are
  /// set-disjoint single-sharer and the program is static — the caller
  /// (sim/kernel.cc) gates on exactly that.
  void adopt_solo_lane(const BasicPartitionedLlc& solo, CoreId core);

 private:
  struct Pending {
    LineAddr line = 0;
    int partition = -1;
    int physical_set = -1;
    Cycle first_presented = kNoCycle;
  };

  /// Where a core's traffic goes under the active map.
  struct Route {
    int partition = -1;  ///< -1: the core has no partition in this mode
    PartitionSpec spec;
    std::uint64_t cores = 0;  ///< the partition's sharers (bit c = core c)
    bool operator==(const Route&) const = default;
  };

  /// Per-physical-set contention state, one bit per way or core. Kept in
  /// step with the entries and `pending_` at every change.
  struct SetState {
    std::uint64_t pending_inval = 0;  ///< ways awaiting back-inval acks
    /// Ways whose line is incompatible with the active mode and must leave
    /// the cache before the drain fence.
    std::uint64_t draining = 0;
    std::uint64_t frozen = 0;  ///< not allocatable until the drain fence
    /// Cores whose pending request maps to this set (any partition).
    std::uint64_t pending_cores = 0;
  };

  struct EntryState {
    int pending_acks = 0;
    /// This drain's back-invalidation has been issued (drain bookkeeping
    /// owns the per-core serialization counters).
    bool drain_issued = false;
  };

  /// The quantities an eviction decision reads for (partition, set).
  struct Contention {
    int demand = 0;  ///< pending requests
    int supply = 0;  ///< free ways + ways already on their way out
    std::uint64_t evictable = 0;
    bool operator==(const Contention&) const = default;
  };

  /// `core`'s route; asserts that the core has a partition.
  [[nodiscard]] const Route& route_of(CoreId core) const {
    const Route& route = routes_[static_cast<std::size_t>(core.value)];
    PSLLC_ASSERT(route.partition >= 0,
                 to_string(core) << " has no LLC partition");
    return route;
  }
  /// Writes every core's route under partitions() into `routes` (sized
  /// num_cores; rebuilt in place so transitions allocate nothing).
  void compute_routes(std::vector<Route>& routes) const;
  /// Rebuilds every set's pending-core mask from `pending_`.
  void rebuild_pending_cores();

  [[nodiscard]] SetState& set_state_at(int physical_set) {
    return set_states_[static_cast<std::size_t>(physical_set)];
  }
  [[nodiscard]] const SetState& set_state_at(int physical_set) const {
    return set_states_[static_cast<std::size_t>(physical_set)];
  }
  [[nodiscard]] EntryState& entry_state(int physical_set, int way);
  [[nodiscard]] const EntryState& entry_state(int physical_set, int way) const;

  /// Way holding `line` among `spec`'s ways of `physical_set` (valid only;
  /// includes pending-invalidation entries), or -1.
  [[nodiscard]] int find_way_raw(const PartitionSpec& spec, int physical_set,
                                 LineAddr line) const;
  /// Invalid, unfrozen ways within the partition's way range.
  [[nodiscard]] std::uint64_t free_ways_mask(const PartitionSpec& spec,
                                             int physical_set) const;
  /// Lowest invalid, unfrozen way within the partition's way range, or -1.
  [[nodiscard]] int find_free_way(const PartitionSpec& spec,
                                  int physical_set) const;
  /// Demand, supply and eviction candidates of `route`'s partition in
  /// `physical_set`, from the per-set masks.
  [[nodiscard]] Contention contention(const Route& route,
                                      int physical_set) const;
  /// The same, recounted core by core and way by way (audit builds).
  [[nodiscard]] Contention recount_contention(const Route& route,
                                              int physical_set) const;

  /// Allocation permission under the active contention mode.
  [[nodiscard]] bool may_allocate(SetKey key, CoreId core) const;

  void complete_pending(CoreId core, SetKey key);
  /// Clears every per-entry eviction/drain mark of (set, way).
  void clear_entry_marks(int physical_set, int way);
  WritebackOutcome apply_back_inval_ack(CoreId core, LineAddr line,
                                        bool dirty_data, Cycle now);

  // --- transition internals ----------------------------------------------
  /// (set, way) of `line` anywhere in the cache, or (-1, -1). Acks and
  /// write-backs issued before a mode switch may reference pre-transition
  /// locations the active map no longer describes.
  [[nodiscard]] std::pair<int, int> locate_line(LineAddr line) const;
  /// True when the resident entry at (set, way) is placed where the active
  /// map would place it and all its sharers belong to that partition.
  [[nodiscard]] bool entry_compatible(int physical_set, int way) const;
  [[nodiscard]] bool is_draining_line(LineAddr line) const {
    return std::binary_search(draining_lines_.begin(), draining_lines_.end(),
                              line);
  }
  void begin_transition(Cycle slot_start);
  void pump_drain(Cycle slot_start, std::vector<BackInvalidation>& out);
  void complete_transition(Cycle slot_start);
  void free_drained_entry(int physical_set, int way, Cycle now);

  LlcConfig config_;
  PartitionProgram program_;
  int mode_index_ = 0;
  ContentionMode mode_;
  Memory* memory_;
  mem::SetStore sets_;  ///< lines and replacement state of every set
  std::vector<SetState> set_states_;      ///< indexed by physical set
  std::vector<EntryState> entry_states_;  ///< sets x ways, set-major
  InclusiveDirectory directory_;
  SetSequencer sequencer_;
  std::vector<std::optional<Pending>> pending_;
  std::vector<Route> routes_;  ///< indexed by core
  // Transition state (empty/false for static programs). Every buffer is
  // reserved at construction, so transitions allocate nothing.
  bool transition_active_ = false;
  std::vector<std::pair<int, int>> drain_queue_;  ///< (set, way) scan order
  /// Lines still draining, sorted and unique.
  std::vector<LineAddr> draining_lines_;
  int drain_remaining_ = 0;
  std::vector<int> core_drain_busy_;  ///< outstanding drain invals per core
  std::vector<std::pair<Cycle, Cycle>> transition_windows_;
  Stats stats_;
};

}  // namespace psllc::llc

#include "llc/llc_impl.h"  // template member definitions

namespace psllc::llc {

// The virtual-dispatch instantiation lives in llc.cc; everything that only
// needs the conformance path links against it instead of re-instantiating.
extern template class BasicPartitionedLlc<mem::MemoryBackend>;

using PartitionedLlc = BasicPartitionedLlc<mem::MemoryBackend>;

}  // namespace psllc::llc

#endif  // PSLLC_LLC_LLC_H_
