// Per-core private cache hierarchy: L1 instruction + L1 data caches backed
// by a unified L2, as in the paper's system model (Figure 1).
//
// Inclusion: L2 is inclusive of both L1s, and the shared LLC is inclusive of
// L2 (enforced by the system model in src/core). An eviction at any level
// therefore back-invalidates all upper levels; a dirty upper-level copy
// merges its dirtiness downward.
#ifndef PSLLC_MEM_PRIVATE_CACHE_H_
#define PSLLC_MEM_PRIVATE_CACHE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "mem/set_assoc_cache.h"

namespace psllc::mem {

/// Geometry + latency of one core's private hierarchy.
struct PrivateCacheConfig {
  CacheGeometry l1i{4, 2, 64};
  CacheGeometry l1d{4, 4, 64};
  CacheGeometry l2{16, 4, 64};  // paper §5: 4-way, 16 sets
  ReplacementKind replacement = ReplacementKind::kLru;
  Cycle l1_hit_latency = 1;
  Cycle l2_hit_latency = 10;

  /// Throws ConfigError on inconsistent shapes (mismatched line sizes, L2
  /// smaller than an L1, non-positive latencies).
  void validate() const;
};

/// Which level serviced an access.
enum class HitLevel : std::uint8_t { kL1, kL2, kMiss };

[[nodiscard]] constexpr const char* to_string(HitLevel h) {
  switch (h) {
    case HitLevel::kL1: return "L1";
    case HitLevel::kL2: return "L2";
    case HitLevel::kMiss: return "MISS";
  }
  return "?";
}

/// Result of a back-invalidation (LLC-initiated eviction).
struct ForcedEviction {
  bool was_present = false;
  bool was_dirty = false;
};

class PrivateCacheHierarchy {
 public:
  PrivateCacheHierarchy(const PrivateCacheConfig& config, std::uint64_t seed);

  [[nodiscard]] const PrivateCacheConfig& config() const { return config_; }

  /// Services an access locally. On L2 hit the line is filled into the
  /// appropriate L1 (possible silent L1 replacement, dirty copy merged into
  /// L2). Returns which level hit; kMiss leaves all state unchanged — the
  /// caller must later call fill() with the LLC response.
  HitLevel access(Addr addr, AccessType type);

  /// Installs the LLC response for `addr` into L2 and the appropriate L1.
  /// `write` marks the L1 copy dirty (write-allocate store). Returns the L2
  /// capacity victim, if any, with merged dirtiness — the caller owns the
  /// resulting write-back / directory notification.
  std::optional<Evicted> fill(Addr addr, AccessType type, bool write);

  /// Back-invalidation from the inclusive LLC: removes `line` from L1s and
  /// L2, reporting presence and merged dirtiness.
  ForcedEviction force_evict(LineAddr line);

  /// True if `line` is resident in L2 (by inclusion, covers the L1s).
  [[nodiscard]] bool holds(LineAddr line) const;

  /// True if any private copy of `line` is dirty.
  [[nodiscard]] bool holds_dirty(LineAddr line) const;

  /// Number of distinct lines this core can privately cache — the paper's
  /// m_cua. Under inclusion this is the L2 capacity.
  [[nodiscard]] int capacity_lines() const {
    return config_.l2.capacity_lines();
  }

  /// Installs `line` directly into L2 (test-scenario setup, e.g. the
  /// paper's Figure 3/4 initial states). The target set must have room.
  void preload(LineAddr line, bool dirty);

  /// Verifies the inclusion invariant (every L1 line present in L2).
  /// Returns true when it holds; used by property tests.
  [[nodiscard]] bool check_inclusion() const;

  [[nodiscard]] const SetAssocCache& l1i() const { return l1i_; }
  [[nodiscard]] const SetAssocCache& l1d() const { return l1d_; }
  [[nodiscard]] const SetAssocCache& l2() const { return l2_; }

  // --- statistics ---
  [[nodiscard]] std::int64_t l1_hits() const { return l1_hits_; }
  [[nodiscard]] std::int64_t l2_hits() const { return l2_hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  SetAssocCache& l1_for(AccessType type) {
    return type == AccessType::kIfetch ? l1i_ : l1d_;
  }

  /// Fills the line of `at` (the L1's own lookup of it, a miss) into the
  /// given L1, merging any dirty L1 victim into L2.
  void fill_l1(SetAssocCache& l1, const Lookup& at, bool dirty);

  /// Removes `line` from `level` unless the level holds no lines at all
  /// (data-only traces never fill L1I), reporting its metadata.
  static std::optional<Evicted> purge(SetAssocCache& level, LineAddr line);

  PrivateCacheConfig config_;
  SetAssocCache l1i_;
  SetAssocCache l1d_;
  SetAssocCache l2_;
  std::int64_t l1_hits_ = 0;
  std::int64_t l2_hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace psllc::mem

#endif  // PSLLC_MEM_PRIVATE_CACHE_H_
