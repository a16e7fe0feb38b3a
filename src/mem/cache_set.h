// One set of a set-associative cache: a flat array of line metadata, a
// bitmask of its valid ways, and the replacement state, all held by value
// (copying a set copies everything). Scans run over the array directly —
// `lines()` hands a caller the whole row, so the partitioned LLC can scan
// its partition's way range without a per-way call — and free-way queries
// are mask operations.
#ifndef PSLLC_MEM_CACHE_SET_H_
#define PSLLC_MEM_CACHE_SET_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/cache_types.h"
#include "mem/replacement.h"

namespace psllc::mem {

class CacheSet {
 public:
  CacheSet(int ways, ReplacementKind kind, std::uint64_t seed = 0)
      : lines_(static_cast<std::size_t>(ways)),
        replacement_(kind, ways, seed) {}

  [[nodiscard]] int ways() const { return static_cast<int>(lines_.size()); }

  /// Every way's metadata, indexed by way.
  [[nodiscard]] std::span<const LineMeta> lines() const { return lines_; }

  /// Bit w set iff way w holds a valid line.
  [[nodiscard]] std::uint64_t valid_mask() const { return valid_mask_; }

  /// Way holding `line`, or -1.
  [[nodiscard]] int find(LineAddr line) const {
    for (std::uint64_t m = valid_mask_; m != 0; m &= m - 1) {
      const int w = std::countr_zero(m);
      if (lines_[static_cast<std::size_t>(w)].line == line) {
        return w;
      }
    }
    return -1;
  }

  /// Lowest invalid way, or -1 when the set is full.
  [[nodiscard]] int find_free() const {
    const std::uint64_t free = ~valid_mask_ & way_range_mask(0, ways());
    return free == 0 ? -1 : std::countr_zero(free);
  }

  [[nodiscard]] const LineMeta& way(int w) const {
    check_way(w);
    return lines_[static_cast<std::size_t>(w)];
  }
  [[nodiscard]] int valid_count() const { return std::popcount(valid_mask_); }

  /// Install `line` into way `w` (must be invalid) and update policy state.
  void insert(LineAddr line, int w, LineState state) {
    check_way(w);
    PSLLC_ASSERT(state != LineState::kInvalid,
                 "cannot insert an invalid line");
    auto& meta = lines_[static_cast<std::size_t>(w)];
    PSLLC_ASSERT(!meta.valid(),
                 "way " << w << " already holds line 0x" << std::hex
                        << meta.line);
    PSLLC_ASSERT(find(line) < 0,
                 "line 0x" << std::hex << line << " already present in set");
    meta.line = line;
    meta.state = state;
    valid_mask_ |= std::uint64_t{1} << w;
    replacement_.on_insert(w);
  }

  /// Record a hit on way `w`.
  void touch(int w) {
    check_valid(w, "touch");
    replacement_.on_access(w);
  }

  /// Mark way `w` dirty (store hit). Precondition: valid.
  void mark_dirty(int w) {
    check_valid(w, "mark_dirty");
    lines_[static_cast<std::size_t>(w)].state = LineState::kDirty;
  }

  /// Mark way `w` clean (after write-back of data). Precondition: valid.
  void mark_clean(int w) {
    check_valid(w, "mark_clean");
    lines_[static_cast<std::size_t>(w)].state = LineState::kClean;
  }

  /// Invalidate way `w`; returns the old metadata.
  LineMeta invalidate(int w) {
    check_valid(w, "invalidate");
    auto& meta = lines_[static_cast<std::size_t>(w)];
    const LineMeta old = meta;
    meta = LineMeta{};
    valid_mask_ &= ~(std::uint64_t{1} << w);
    replacement_.on_invalidate(w);
    return old;
  }

  /// Select a victim among the valid ways set in `eligible`; -1 when none.
  /// Does not modify line state.
  [[nodiscard]] int select_victim(std::uint64_t eligible) {
    // The policy must never be offered an invalid way.
    PSLLC_ASSERT((eligible & ~valid_mask_) == 0,
                 "eligible mask includes invalid way "
                     << std::countr_zero(eligible & ~valid_mask_));
    return replacement_.select_victim(eligible);
  }

  /// Convenience: victim among all valid ways.
  [[nodiscard]] int select_victim_any() {
    return replacement_.select_victim(valid_mask_);
  }

 private:
  void check_way(int w) const {
    PSLLC_ASSERT(w >= 0 && w < ways(),
                 "way " << w << " out of range [0," << ways() << ")");
  }
  void check_valid(int w, const char* what) const {
    check_way(w);
    PSLLC_ASSERT(((valid_mask_ >> w) & 1) != 0,
                 what << " on invalid way " << w);
  }

  std::vector<LineMeta> lines_;
  std::uint64_t valid_mask_ = 0;
  ReplacementState replacement_;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_CACHE_SET_H_
