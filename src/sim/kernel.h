// Tight replay kernel: the hot path behind sim::replay().
//
// The legacy core::System walks every TDM slot, calling run_until on every
// core each slot and checking all_done between slots. The kernel replays
// the same model event-style, driven by slot owners. Each lane caches one
// candidate slot — a slot it owns: the exact slot of its earliest buffered
// PRB/PWB message or, while it still runs, a lower bound on the slot of its
// next request. The kernel executes the smallest candidate with the
// identical owner-pick / LLC / tracker sequence as System::step_slot,
// advancing only that slot's owner to the slot start; a lower-bound
// candidate whose owner turns out to have nothing eligible is an idle
// probe. Every other lane lags until a back-invalidation reaches it, a
// pinned transition slot or the end of the replay advances it. Slots
// between candidates are skipped outright — which is sound because no lane
// can act before its candidate and PendingBuffers::pick leaves the
// round-robin preference untouched when nothing is eligible. The per-slot
// path does no hardware division: slot and phase arithmetic goes through
// precomputed exact divisors and an owner-by-phase table.
//
// State is struct-of-arrays: per-lane cursors, program counters, ready
// times and block flags live in flat vectors (no per-op allocation, no
// std::function, no virtual core objects). The memory backend is selected
// once per cell and the LLC is instantiated against the concrete `final`
// backend type (llc::BasicPartitionedLlc<Backend>), so DRAM service calls
// devirtualize and inline; the virtual mem::MemoryBackend interface remains
// the cold-path/conformance surface used by core::System.
//
// Lane replay: under TDM arbitration with private, set-disjoint LLC
// partitions a lane's slot timeline depends only on its own requests. When
// a cell's lanes are independent in that sense (see lanes_independent in
// kernel.cc) and more than one thread is granted, each non-empty lane
// replays alone to the horizon on its own kernel, up to `cell_threads` at
// a time, and the final lane states are merged once into a fresh kernel
// that is finalized. Every other cell replays on the serial kernel.
//
// The kernel must be bit-identical to the legacy engine for every metric in
// RunMetrics (lane replay included, parallel_segments aside). Anything it
// cannot reproduce exactly is declared ineligible in sim::kernel_eligible
// and falls back to legacy.
#ifndef PSLLC_SIM_KERNEL_H_
#define PSLLC_SIM_KERNEL_H_

#include "sim/replay.h"

namespace psllc::sim {

/// Replays a kernel-eligible request: lane replay with up to `cell_threads`
/// worker threads when cell_threads > 1 and the lanes are independent, the
/// serial kernel otherwise. Precondition: kernel_eligible(request)
/// (replay() enforces this; calling it directly with an ineligible request
/// is an assertion failure).
[[nodiscard]] RunMetrics run_kernel(const ReplayRequest& request,
                                    int cell_threads = 1);

}  // namespace psllc::sim

#endif  // PSLLC_SIM_KERNEL_H_
