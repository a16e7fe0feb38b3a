// Per-set replacement state for the five policies, held by value.
//
// The WCL analysis in the paper (Section 4.3) is explicitly agnostic of the
// replacement policy — it assumes only that the policy "can select any of
// the cache lines". We implement several real policies so the ablation bench
// can demonstrate the bounds hold across them. Victim selection takes a
// bitmask of eligible ways (bit w = way w; CacheGeometry::validate caps a
// set at 64 ways) because LLC lines with an in-flight back-invalidation must
// not be re-selected.
//
// ReplacementState is a plain value that dispatches with a switch on the
// kind: no policy object on the heap, and copying a set copies its state.
//  * LRU and FIFO keep one order stamp per way. A touch (LRU) or insert
//    (FIFO) takes the next stamp above every other way's; an invalidate
//    takes the next one below, so a freed way is reused first. The victim
//    is the eligible way with the lowest stamp: exactly the order of a
//    recency stack (LRU) or insertion list (FIFO), without moving entries.
//  * Random and NMRU pick the k-th eligible way (ascending) from a seeded
//    stream; NMRU skips the most recently used way unless it is the only
//    eligible one.
//  * Tree-PLRU keeps its bit tree in one word (node i at bit i, root 1).
#ifndef PSLLC_MEM_REPLACEMENT_H_
#define PSLLC_MEM_REPLACEMENT_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mem/cache_types.h"

namespace psllc::mem {

/// Bitmask of `count` ways starting at `first` (first + count <= 64).
[[nodiscard]] constexpr std::uint64_t way_range_mask(int first, int count) {
  const std::uint64_t ones =
      count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  return ones << first;
}

class ReplacementState {
 public:
  /// `seed` feeds the stochastic policies (Random, NMRU) so whole
  /// simulations stay deterministic.
  ReplacementState(ReplacementKind kind, int ways, std::uint64_t seed = 0)
      : kind_(kind), ways_(ways), rng_(seed) {
    PSLLC_ASSERT(ways > 0 && ways <= kMaxWays,
                 "replacement state needs 1.." << kMaxWays << " ways, got "
                                               << ways);
    if (kind_ == ReplacementKind::kLru || kind_ == ReplacementKind::kFifo) {
      // LRU starts as the stack 0 (MRU) .. ways-1 (LRU); FIFO as the list
      // 0 (oldest) .. ways-1 (newest).
      const bool lru = kind_ == ReplacementKind::kLru;
      stamps_.resize(static_cast<std::size_t>(ways));
      for (int w = 0; w < ways; ++w) {
        stamps_[static_cast<std::size_t>(w)] = lru ? -w : w;
      }
      newest_ = lru ? 0 : ways - 1;
      oldest_ = lru ? -(ways - 1) : 0;
    }
    while (plru_leaves_ < ways) {
      plru_leaves_ *= 2;
    }
  }

  /// A line was inserted into `way` (fill).
  void on_insert(int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        stamp(way) = ++newest_;
        return;
      case ReplacementKind::kNmru:
        mru_ = way;
        return;
      case ReplacementKind::kTreePlru:
        plru_touch(way);
        return;
      case ReplacementKind::kRandom:
        return;
    }
  }

  /// A hit touched `way`. FIFO and Random ignore hits.
  void on_access(int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
        stamp(way) = ++newest_;
        return;
      case ReplacementKind::kNmru:
        mru_ = way;
        return;
      case ReplacementKind::kTreePlru:
        plru_touch(way);
        return;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom:
        return;
    }
  }

  /// `way` was invalidated.
  void on_invalidate(int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        stamp(way) = --oldest_;
        return;
      case ReplacementKind::kNmru:
        if (mru_ == way) {
          mru_ = -1;
        }
        return;
      case ReplacementKind::kRandom:
      case ReplacementKind::kTreePlru:
        return;
    }
  }

  /// Chooses a victim among the ways set in `eligible`; -1 when none is.
  /// Bits at or above the way count must be clear.
  [[nodiscard]] int select_victim(std::uint64_t eligible) {
    PSLLC_ASSERT((eligible & ~way_range_mask(0, ways_)) == 0,
                 "eligibility mask names ways beyond " << ways_);
    if (eligible == 0) {
      return -1;
    }
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        return lowest_stamp(eligible);
      case ReplacementKind::kRandom:
        return pick(eligible);
      case ReplacementKind::kNmru:
        if (std::has_single_bit(eligible)) {
          return std::countr_zero(eligible);
        }
        return pick(mru_ >= 0 ? eligible & ~(std::uint64_t{1} << mru_)
                              : eligible);
      case ReplacementKind::kTreePlru: {
        // Follow the PLRU bits; if the chosen leaf is not eligible, fall
        // back to the first eligible way (hardware would typically mask
        // the tree, which behaves equivalently for our purposes).
        int node = 1;
        while (node < plru_leaves_) {
          node = 2 * node + static_cast<int>((plru_bits_ >> node) & 1);
        }
        const int way = node - plru_leaves_;
        if (way < ways_ && ((eligible >> way) & 1) != 0) {
          return way;
        }
        return std::countr_zero(eligible);
      }
    }
    PSLLC_ASSERT(false, "unknown replacement kind");
    return -1;
  }

 private:
  std::int64_t& stamp(int way) {
    return stamps_[static_cast<std::size_t>(way)];
  }

  [[nodiscard]] int lowest_stamp(std::uint64_t eligible) const {
    int best = std::countr_zero(eligible);
    for (eligible &= eligible - 1; eligible != 0; eligible &= eligible - 1) {
      const int w = std::countr_zero(eligible);
      if (stamps_[static_cast<std::size_t>(w)] <
          stamps_[static_cast<std::size_t>(best)]) {
        best = w;
      }
    }
    return best;
  }

  /// Uniformly random way among `pool` (non-empty): the k-th set bit.
  int pick(std::uint64_t pool) {
    auto k = rng_.next_below(static_cast<std::uint64_t>(std::popcount(pool)));
    for (; k > 0; --k) {
      pool &= pool - 1;
    }
    return std::countr_zero(pool);
  }

  /// Flips the bits along `way`'s path so they point away from it.
  void plru_touch(int way) {
    for (int node = plru_leaves_ + way; node > 1; node /= 2) {
      const int parent = node / 2;
      const std::uint64_t bit = std::uint64_t{1} << parent;
      plru_bits_ = node == 2 * parent ? plru_bits_ | bit : plru_bits_ & ~bit;
    }
  }

  ReplacementKind kind_;
  int ways_;
  std::vector<std::int64_t> stamps_;  ///< LRU/FIFO only; lowest = victim
  std::int64_t newest_ = 0;
  std::int64_t oldest_ = 0;
  Rng rng_;                           ///< Random/NMRU
  int mru_ = -1;                      ///< NMRU
  std::uint64_t plru_bits_ = 0;       ///< Tree-PLRU internal nodes
  int plru_leaves_ = 1;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_REPLACEMENT_H_
