// Generic set-associative cache over a SetStore, used for the private L1
// and L2 caches (the partitioned LLC in src/llc keeps its own SetStore
// because partitions restrict both the set range and the way range).
#ifndef PSLLC_MEM_SET_ASSOC_CACHE_H_
#define PSLLC_MEM_SET_ASSOC_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/cache_types.h"
#include "mem/set_store.h"

namespace psllc::mem {

/// A line evicted from a cache (capacity replacement or invalidation).
struct Evicted {
  LineAddr line = 0;
  bool dirty = false;
};

/// Where a lookup found a line: its set, and its way or -1. A miss's
/// lookup is what fill() needs, so a miss can be filled without scanning
/// the set again (valid until the set changes).
struct Lookup {
  LineAddr line = 0;
  int set = 0;
  int way = -1;
  [[nodiscard]] bool hit() const { return way >= 0; }
};

class SetAssocCache {
 public:
  SetAssocCache(const CacheGeometry& geometry, ReplacementKind replacement,
                std::uint64_t seed = 0);

  [[nodiscard]] const CacheGeometry& geometry() const { return geometry_; }

  /// One scan of `line`'s set; no state or statistics change.
  [[nodiscard]] Lookup lookup(LineAddr line) const {
    const int set = geometry_.set_of(line);
    return Lookup{line, set, store_.find(set, line)};
  }

  /// True if `line` is present.
  [[nodiscard]] bool contains(LineAddr line) const {
    return lookup(line).hit();
  }

  /// True if `line` is present and dirty.
  [[nodiscard]] bool is_dirty(LineAddr line) const;

  /// Lookup for an access: on a hit, updates replacement state and
  /// dirtiness (if `write`). Counts the hit or miss; the result locates
  /// the line for a fill after a miss.
  Lookup access(LineAddr line, bool write) {
    const Lookup at = lookup(line);
    if (!at.hit()) {
      ++misses_;
      return at;
    }
    ++hits_;
    store_.touch(at.set, at.way, write);
    return at;
  }

  /// Inserts `line` (must be absent). If the set is full, a victim is
  /// replaced and returned. `dirty` sets the initial state.
  std::optional<Evicted> fill(LineAddr line, bool dirty) {
    return fill(lookup(line), dirty);
  }

  /// fill() at a miss's lookup, which asserts the absence the lookup found.
  std::optional<Evicted> fill(const Lookup& at, bool dirty);

  /// Removes `line` if present; returns its metadata (for dirty write-back
  /// decisions). No-op returning nullopt when absent.
  std::optional<Evicted> remove(LineAddr line);

  /// Marks `line` clean if present (data written back but retained).
  void mark_clean(LineAddr line);

  /// Number of valid lines across all sets (a running count).
  [[nodiscard]] int valid_lines() const { return store_.valid_lines(); }

  /// All valid line addresses (test/introspection helper).
  [[nodiscard]] std::vector<LineAddr> resident_lines() const;

  /// The sets, for white-box tests and audit checks.
  [[nodiscard]] const SetStore& store() const { return store_; }

  // --- statistics ---
  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  CacheGeometry geometry_;
  SetStore store_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_SET_ASSOC_CACHE_H_
