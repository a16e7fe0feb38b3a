// The sets of one set-associative cache in flat arrays: a sets x ways
// array of tags, per-set valid and dirty way masks (a line's state is its
// two bits), and the replacement state of every set (replacement.h). The
// private L1/L2 caches (SetAssocCache) and the partitioned LLC both keep
// their sets here, so a store costs the same few allocations whatever its
// set count, and copying one copies everything.
//
// A lookup compares a set's row of tags (or a way range of it, so the
// partitioned LLC scans only its partition's ways) against the line and
// masks the matches with the valid ways; free-way queries are mask
// operations. A running count of valid lines lets a caller skip a cache
// that holds nothing.
#ifndef PSLLC_MEM_SET_STORE_H_
#define PSLLC_MEM_SET_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "mem/cache_types.h"
#include "mem/replacement.h"

namespace psllc::mem {

class SetStore {
 public:
  /// An empty store (no sets); assign a real one before use.
  SetStore() = default;

  /// `sets` empty sets of `ways` ways; `seed` and `salt` seed the
  /// replacement streams (ReplacementStore).
  SetStore(int sets, int ways, ReplacementKind kind, std::uint64_t seed = 0,
           std::uint64_t salt = 0)
      : sets_(sets),
        ways_(ways),
        tags_(static_cast<std::size_t>(sets) * static_cast<std::size_t>(ways)),
        masks_(static_cast<std::size_t>(sets)),
        replacement_(kind, sets, ways, seed, salt) {}

  [[nodiscard]] int sets() const { return sets_; }
  [[nodiscard]] int ways() const { return ways_; }

  /// Bit w set iff way w of `set` holds a valid line.
  [[nodiscard]] std::uint64_t valid_mask(int set) const {
    return masks(set).valid;
  }

  /// Way of `set` holding `line`, or -1.
  [[nodiscard]] int find(int set, LineAddr line) const {
    return find(set, line, 0, ways_);
  }

  /// Way among `count` ways of `set` from `first` holding `line`, or -1.
  /// Compares every tag of the range and masks the matches with the valid
  /// ways, so the scan has no data-dependent exit: on random traffic,
  /// where the hit way is unpredictable, that exit would mispredict.
  [[nodiscard]] int find(int set, LineAddr line, int first, int count) const {
    const std::uint64_t valid = masks(set).valid;  // checks `set` first
    const LineAddr* tags = row(set);
    std::uint64_t match = 0;
    for (int w = first; w < first + count; ++w) {
      match |= static_cast<std::uint64_t>(tags[w] == line) << w;
    }
    match &= valid;
    return match == 0 ? -1 : std::countr_zero(match);
  }

  /// Lowest invalid way of `set`, or -1 when the set is full.
  [[nodiscard]] int find_free(int set) const {
    const std::uint64_t free = ~masks(set).valid & way_range_mask(0, ways_);
    return free == 0 ? -1 : std::countr_zero(free);
  }

  /// Metadata of way `w` of `set` (line 0 when invalid).
  [[nodiscard]] LineMeta way(int set, int w) const {
    check_way(w);
    const Masks& m = masks(set);
    if (((m.valid >> w) & 1) == 0) {
      return LineMeta{};
    }
    return LineMeta{row(set)[w], ((m.dirty >> w) & 1) != 0
                                     ? LineState::kDirty
                                     : LineState::kClean};
  }

  [[nodiscard]] int valid_count(int set) const {
    return std::popcount(masks(set).valid);
  }

  /// Valid lines across all sets, kept as a running count.
  [[nodiscard]] int valid_lines() const { return valid_lines_; }

  /// The same, recounted set by set (audit checks of the running count).
  [[nodiscard]] int count_valid_lines() const {
    int count = 0;
    for (const Masks& m : masks_) {
      count += std::popcount(m.valid);
    }
    return count;
  }

  /// Installs `line` into way `w` of `set` (must be invalid; `line` must be
  /// absent from the set) and updates the policy state.
  void insert(int set, LineAddr line, int w, LineState state) {
    PSLLC_ASSERT(find(set, line) < 0,
                 "line 0x" << std::hex << line << " already present in set");
    place(set, line, w, state);
  }

  /// insert() for a caller whose own lookup already found `line` absent
  /// from the set: the same checks but that one, so the set is not scanned
  /// twice.
  void place(int set, LineAddr line, int w, LineState state) {
    check_way(w);
    PSLLC_ASSERT(state != LineState::kInvalid,
                 "cannot insert an invalid line");
    Masks& m = masks(set);
    const std::uint64_t bit = std::uint64_t{1} << w;
    PSLLC_ASSERT((m.valid & bit) == 0,
                 "way " << w << " already holds line 0x" << std::hex
                        << row(set)[w]);
    row(set)[w] = line;
    m.valid |= bit;
    m.dirty = state == LineState::kDirty ? m.dirty | bit : m.dirty & ~bit;
    ++valid_lines_;
    replacement_.on_insert(set, w);
  }

  /// Records a hit on way `w` of `set`; a `write` hit also marks the way
  /// dirty (without a branch on the access type, which random traffic
  /// makes unpredictable).
  void touch(int set, int w, bool write = false) {
    check_valid(set, w, "touch");
    masks(set).dirty |= static_cast<std::uint64_t>(write) << w;
    replacement_.on_access(set, w);
  }

  /// Marks way `w` of `set` dirty (store hit). Precondition: valid.
  void mark_dirty(int set, int w) {
    check_valid(set, w, "mark_dirty");
    masks(set).dirty |= std::uint64_t{1} << w;
  }

  /// Marks way `w` of `set` clean (after write-back of data).
  /// Precondition: valid.
  void mark_clean(int set, int w) {
    check_valid(set, w, "mark_clean");
    masks(set).dirty &= ~(std::uint64_t{1} << w);
  }

  /// Invalidates way `w` of `set`; returns the old metadata.
  LineMeta invalidate(int set, int w) {
    check_valid(set, w, "invalidate");
    const LineMeta old = way(set, w);
    Masks& m = masks(set);
    m.valid &= ~(std::uint64_t{1} << w);
    m.dirty &= ~(std::uint64_t{1} << w);
    --valid_lines_;
    replacement_.on_invalidate(set, w);
    return old;
  }

  /// Selects a victim in `set` among the valid ways set in `eligible`; -1
  /// when none. Does not modify line state.
  [[nodiscard]] int select_victim(int set, std::uint64_t eligible) {
    // The policy must never be offered an invalid way.
    PSLLC_ASSERT((eligible & ~masks(set).valid) == 0,
                 "eligible mask includes invalid way "
                     << std::countr_zero(eligible & ~masks(set).valid));
    return replacement_.select_victim(set, eligible);
  }

  /// Convenience: victim among all valid ways of `set`.
  [[nodiscard]] int select_victim_any(int set) {
    return replacement_.select_victim(set, masks(set).valid);
  }

  /// Overwrites sets [first, first + count) — lines and policy state —
  /// with `from`'s (same shape), the rest untouched.
  void copy_sets(const SetStore& from, int first, int count) {
    replacement_.copy_sets(from.replacement_, first, count);
    for (int s = first; s < first + count; ++s) {
      valid_lines_ += from.valid_count(s) - valid_count(s);
    }
    const auto row = static_cast<std::ptrdiff_t>(ways_);
    std::copy_n(from.tags_.begin() + first * row, count * row,
                tags_.begin() + first * row);
    std::copy_n(from.masks_.begin() + first, count, masks_.begin() + first);
  }

 private:
  struct Masks {
    std::uint64_t valid = 0;
    std::uint64_t dirty = 0;  ///< subset of valid
  };

  [[nodiscard]] const Masks& masks(int set) const {
    check_set(set);
    return masks_[static_cast<std::size_t>(set)];
  }
  Masks& masks(int set) {
    check_set(set);
    return masks_[static_cast<std::size_t>(set)];
  }
  [[nodiscard]] const LineAddr* row(int set) const {
    return tags_.data() +
           static_cast<std::size_t>(set) * static_cast<std::size_t>(ways_);
  }
  LineAddr* row(int set) {
    return tags_.data() +
           static_cast<std::size_t>(set) * static_cast<std::size_t>(ways_);
  }

  void check_set(int set) const {
    // One unsigned comparison also rejects negative indices.
    PSLLC_ASSERT(static_cast<unsigned>(set) < static_cast<unsigned>(sets_),
                 "set " << set << " out of range [0," << sets_ << ")");
  }
  void check_way(int w) const {
    PSLLC_ASSERT(static_cast<unsigned>(w) < static_cast<unsigned>(ways_),
                 "way " << w << " out of range [0," << ways_ << ")");
  }
  void check_valid(int set, int w, const char* what) const {
    check_way(w);
    PSLLC_ASSERT(((masks(set).valid >> w) & 1) != 0,
                 what << " on invalid way " << w);
  }

  int sets_ = 0;
  int ways_ = 0;
  int valid_lines_ = 0;
  std::vector<LineAddr> tags_;  ///< sets x ways, set-major
  std::vector<Masks> masks_;    ///< indexed by set
  ReplacementStore replacement_;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_SET_STORE_H_
