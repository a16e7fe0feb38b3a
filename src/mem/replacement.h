// Replacement state of every set of one cache, for the five policies, in
// flat arrays.
//
// The WCL analysis in the paper (Section 4.3) is explicitly agnostic of the
// replacement policy — it assumes only that the policy "can select any of
// the cache lines". We implement several real policies so the ablation bench
// can demonstrate the bounds hold across them. Victim selection takes a
// bitmask of eligible ways (bit w = way w; CacheGeometry::validate caps a
// set at 64 ways) because LLC lines with an in-flight back-invalidation must
// not be re-selected.
//
// ReplacementStore holds the state of all sets of a cache and dispatches
// with a switch on the kind: no policy object on the heap, a fixed number
// of allocations whatever the set count, and copying a store copies every
// set's state.
//  * LRU and FIFO keep one order stamp per way, in one sets x ways array. A
//    touch (LRU) or insert (FIFO) takes the next stamp above every other
//    way's of the set; an invalidate takes the next one below, so a freed
//    way is reused first. The victim is the eligible way with the lowest
//    stamp: exactly the order of a recency stack (LRU) or insertion list
//    (FIFO), without moving entries.
//  * Random and NMRU pick the k-th eligible way (ascending) from a seeded
//    per-set stream; NMRU skips the most recently used way unless it is
//    the only eligible one.
//  * Tree-PLRU keeps each set's bit tree in one word (node i at bit i,
//    root 1).
// The per-set words (newest and oldest stamp, stream, MRU way, PLRU bits)
// sit together in one flat array of small records.
#ifndef PSLLC_MEM_REPLACEMENT_H_
#define PSLLC_MEM_REPLACEMENT_H_

#include <algorithm>
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

class ReplacementStore {
 public:
  /// An empty store (no sets); assign a real one before use.
  ReplacementStore() = default;

  /// `sets` sets of `ways` ways. Set s's stream (Random, NMRU) is seeded
  /// with mix_seed(seed, s, salt), so whole simulations stay deterministic
  /// and every set draws independently.
  ReplacementStore(ReplacementKind kind, int sets, int ways,
                   std::uint64_t seed = 0, std::uint64_t salt = 0)
      : kind_(kind), ways_(ways) {
    PSLLC_ASSERT(ways > 0 && ways <= kMaxWays,
                 "replacement state needs 1.." << kMaxWays << " ways, got "
                                               << ways);
    PSLLC_ASSERT(sets > 0, "replacement state needs >=1 set, got " << sets);
    words_.reserve(static_cast<std::size_t>(sets));
    for (int s = 0; s < sets; ++s) {
      words_.push_back(
          SetWords{Rng(mix_seed(seed, static_cast<std::uint64_t>(s), salt))});
    }
    if (stamped()) {
      // LRU starts as the stack 0 (MRU) .. ways-1 (LRU); FIFO as the list
      // 0 (oldest) .. ways-1 (newest).
      const bool lru = kind_ == ReplacementKind::kLru;
      stamps_.resize(static_cast<std::size_t>(sets) *
                     static_cast<std::size_t>(ways));
      for (std::size_t s = 0; s < words_.size(); ++s) {
        for (int w = 0; w < ways; ++w) {
          stamps_[s * static_cast<std::size_t>(ways) +
                  static_cast<std::size_t>(w)] = lru ? -w : w;
        }
        words_[s].newest = lru ? 0 : ways - 1;
        words_[s].oldest = lru ? -(ways - 1) : 0;
      }
    }
    while (plru_leaves_ < ways) {
      plru_leaves_ *= 2;
    }
  }

  [[nodiscard]] int sets() const { return static_cast<int>(words_.size()); }

  /// A line was inserted into `way` of `set` (fill).
  void on_insert(int set, int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        stamp(set, way) = ++words(set).newest;
        return;
      case ReplacementKind::kNmru:
        words(set).mru = way;
        return;
      case ReplacementKind::kTreePlru:
        plru_touch(words(set), way);
        return;
      case ReplacementKind::kRandom:
        return;
    }
  }

  /// A hit touched `way` of `set`. FIFO and Random ignore hits.
  void on_access(int set, int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
        stamp(set, way) = ++words(set).newest;
        return;
      case ReplacementKind::kNmru:
        words(set).mru = way;
        return;
      case ReplacementKind::kTreePlru:
        plru_touch(words(set), way);
        return;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom:
        return;
    }
  }

  /// `way` of `set` was invalidated.
  void on_invalidate(int set, int way) {
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        stamp(set, way) = --words(set).oldest;
        return;
      case ReplacementKind::kNmru:
        if (words(set).mru == way) {
          words(set).mru = -1;
        }
        return;
      case ReplacementKind::kRandom:
      case ReplacementKind::kTreePlru:
        return;
    }
  }

  /// Chooses a victim in `set` among the ways set in `eligible`; -1 when
  /// none is. Bits at or above the way count must be clear.
  [[nodiscard]] int select_victim(int set, std::uint64_t eligible) {
    PSLLC_ASSERT((eligible & ~way_range_mask(0, ways_)) == 0,
                 "eligibility mask names ways beyond " << ways_);
    if (eligible == 0) {
      return -1;
    }
    switch (kind_) {
      case ReplacementKind::kLru:
      case ReplacementKind::kFifo:
        return lowest_stamp(set, eligible);
      case ReplacementKind::kRandom:
        return pick(words(set), eligible);
      case ReplacementKind::kNmru: {
        if (std::has_single_bit(eligible)) {
          return std::countr_zero(eligible);
        }
        SetWords& words = this->words(set);
        return pick(words, words.mru >= 0
                               ? eligible & ~(std::uint64_t{1} << words.mru)
                               : eligible);
      }
      case ReplacementKind::kTreePlru: {
        // Follow the PLRU bits; if the chosen leaf is not eligible, fall
        // back to the first eligible way (hardware would typically mask
        // the tree, which behaves equivalently for our purposes).
        const std::uint64_t bits = words(set).plru_bits;
        int node = 1;
        while (node < plru_leaves_) {
          node = 2 * node + static_cast<int>((bits >> node) & 1);
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

  /// Overwrites sets [first, first + count) with `from`'s (same shape and
  /// kind), the rest untouched.
  void copy_sets(const ReplacementStore& from, int first, int count) {
    PSLLC_ASSERT(from.kind_ == kind_ && from.ways_ == ways_ &&
                     from.sets() == sets() && first >= 0 && count >= 0 &&
                     first + count <= sets(),
                 "set copy [" << first << ", " << first + count
                              << ") between differently shaped stores");
    std::copy_n(from.words_.begin() + first, count, words_.begin() + first);
    if (stamped()) {
      const auto row = static_cast<std::ptrdiff_t>(ways_);
      std::copy_n(from.stamps_.begin() + first * row, count * row,
                  stamps_.begin() + first * row);
    }
  }

 private:
  /// Everything one set keeps besides the LRU/FIFO stamps.
  struct SetWords {
    Rng rng{0};                    ///< Random/NMRU
    std::int64_t newest = 0;       ///< LRU/FIFO: highest stamp handed out
    std::int64_t oldest = 0;       ///< LRU/FIFO: lowest stamp handed out
    std::uint64_t plru_bits = 0;   ///< Tree-PLRU internal nodes
    int mru = -1;                  ///< NMRU
  };

  [[nodiscard]] bool stamped() const {
    return kind_ == ReplacementKind::kLru || kind_ == ReplacementKind::kFifo;
  }
  SetWords& words(int set) { return words_[static_cast<std::size_t>(set)]; }
  std::int64_t& stamp(int set, int way) {
    return stamps_[static_cast<std::size_t>(set) *
                       static_cast<std::size_t>(ways_) +
                   static_cast<std::size_t>(way)];
  }

  [[nodiscard]] int lowest_stamp(int set, std::uint64_t eligible) const {
    const std::int64_t* stamps =
        stamps_.data() +
        static_cast<std::size_t>(set) * static_cast<std::size_t>(ways_);
    // Selects without a data-dependent branch: with random traffic the
    // comparison outcome is unpredictable.
    int best = std::countr_zero(eligible);
    std::int64_t lowest = stamps[best];
    for (eligible &= eligible - 1; eligible != 0; eligible &= eligible - 1) {
      const int w = std::countr_zero(eligible);
      const bool lower = stamps[w] < lowest;
      best = lower ? w : best;
      lowest = lower ? stamps[w] : lowest;
    }
    return best;
  }

  /// Uniformly random way among `pool` (non-empty): the k-th set bit.
  static int pick(SetWords& words, std::uint64_t pool) {
    auto k = words.rng.next_below(
        static_cast<std::uint64_t>(std::popcount(pool)));
    for (; k > 0; --k) {
      pool &= pool - 1;
    }
    return std::countr_zero(pool);
  }

  /// Flips the bits along `way`'s path so they point away from it.
  void plru_touch(SetWords& words, int way) const {
    for (int node = plru_leaves_ + way; node > 1; node /= 2) {
      const int parent = node / 2;
      const std::uint64_t bit = std::uint64_t{1} << parent;
      words.plru_bits =
          node == 2 * parent ? words.plru_bits | bit : words.plru_bits & ~bit;
    }
  }

  ReplacementKind kind_ = ReplacementKind::kLru;
  int ways_ = 0;
  int plru_leaves_ = 1;
  std::vector<std::int64_t> stamps_;  ///< LRU/FIFO only; sets x ways
  std::vector<SetWords> words_;       ///< indexed by set
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_REPLACEMENT_H_
