// Inclusive sharer directory: for every line resident in the LLC, which
// cores hold a private copy (the paper's "l1 : c3" annotations).
//
// The directory is what makes back-invalidation possible: when the LLC
// evicts a line it must force every private copy out (inclusive property,
// paper Section 3). Workloads in the paper are data-disjoint, so lines have
// at most one sharer there; the directory nevertheless supports read
// sharing, and the system model flags writes to multi-sharer lines (a
// predictable coherence protocol is out of scope, see DESIGN.md).
//
// Layout: one open-addressing table of (line, sharer bitmask) slots with
// linear probing and backward-shift deletion, so lookups touch one or two
// adjacent slots and nothing is allocated after construction. A slot with
// an empty mask is free. The table is sized once for `max_lines` tracked
// lines — the LLC passes its capacity, since by inclusion every tracked
// line is resident — at a load factor of at most 1/2.
//
// The table stays keyed by line rather than living in the LLC ways: the
// shared-write check and the acks for drains and pre-transition evictions
// look lines up by address, sometimes outside the requester's partition.
#ifndef PSLLC_LLC_DIRECTORY_H_
#define PSLLC_LLC_DIRECTORY_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace psllc::llc {

/// A set of cores held as one 64-bit word (bit c = core c), iterated in
/// ascending CoreId order. A value type: copying it never allocates, which
/// is what lets a back-invalidation name its owners on the slot hot path.
class CoreMask {
 public:
  /// Walks the set bits, lowest first.
  class Iterator {
   public:
    constexpr Iterator() = default;
    constexpr explicit Iterator(std::uint64_t rest) : rest_(rest) {}

    [[nodiscard]] constexpr CoreId operator*() const {
      return CoreId{std::countr_zero(rest_)};
    }
    constexpr Iterator& operator++() {
      rest_ &= rest_ - 1;
      return *this;
    }
    constexpr bool operator==(const Iterator&) const = default;

   private:
    std::uint64_t rest_ = 0;  ///< cores not yet visited
  };

  constexpr CoreMask() = default;
  constexpr explicit CoreMask(std::uint64_t bits) : bits_(bits) {}

  [[nodiscard]] constexpr std::uint64_t bits() const { return bits_; }
  [[nodiscard]] constexpr std::size_t size() const {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  [[nodiscard]] constexpr bool empty() const { return bits_ == 0; }
  [[nodiscard]] constexpr Iterator begin() const { return Iterator(bits_); }
  [[nodiscard]] constexpr Iterator end() const { return Iterator(); }

 private:
  std::uint64_t bits_ = 0;
};

class InclusiveDirectory {
 public:
  /// Sharer masks are one 64-bit word: core ids must be below this.
  static constexpr int kMaxCores = 64;

  explicit InclusiveDirectory(int max_lines = 64);

  /// Records that `core` now holds a private copy of `line`.
  void add_sharer(LineAddr line, CoreId core);

  /// Records that `core` no longer holds `line`. No-op if it was not
  /// recorded (e.g. double notification); returns whether it was present.
  bool remove_sharer(LineAddr line, CoreId core);

  /// All sharers of `line` in ascending core order (empty when none).
  [[nodiscard]] std::vector<CoreId> sharers(LineAddr line) const;

  /// Sharers of `line` as a bitmask (bit c = core c; 0 when none).
  [[nodiscard]] std::uint64_t sharer_mask(LineAddr line) const {
    return slots_[probe(line)].sharers;
  }

  [[nodiscard]] bool is_shared_by(LineAddr line, CoreId core) const;
  [[nodiscard]] int sharer_count(LineAddr line) const;

  /// Drops all sharer state for `line` (LLC entry invalidated).
  void clear_line(LineAddr line);

  /// Number of lines with at least one sharer.
  [[nodiscard]] int tracked_lines() const { return size_; }

  /// Calls `fn(line, sharer_mask)` for every tracked line, in table order.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.sharers != 0) {
        fn(slot.line, slot.sharers);
      }
    }
  }

  /// Lane-replay merge: absorbs a per-lane solo run's directory. Line sets
  /// must be disjoint (the caller gates the merge on data-disjoint
  /// workloads).
  void absorb(const InclusiveDirectory& other);

 private:
  struct Slot {
    LineAddr line = 0;
    std::uint64_t sharers = 0;  ///< 0 = free slot
  };

  [[nodiscard]] std::size_t home(LineAddr line) const {
    // Fibonacci hashing spreads lines that share low bits (same LLC set).
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// Slot holding `line`, or the free slot that ends its probe run.
  [[nodiscard]] std::size_t probe(LineAddr line) const {
    std::size_t i = home(line);
    while (slots_[i].sharers != 0 && slots_[i].line != line) {
      i = (i + 1) & index_mask_;
    }
    return i;
  }
  /// Claims free slot `i` (from probe()) for `line`.
  void occupy(std::size_t i, LineAddr line);
  /// Frees slot `i`, shifting later entries of its cluster back so every
  /// probe run stays unbroken.
  void erase_at(std::size_t i);

  std::vector<Slot> slots_;
  std::size_t index_mask_ = 0;  ///< slots_.size() - 1 (a power of two)
  int shift_ = 63;              ///< 64 - log2(slots_.size())
  int max_lines_ = 0;
  int size_ = 0;
};

}  // namespace psllc::llc

#endif  // PSLLC_LLC_DIRECTORY_H_
