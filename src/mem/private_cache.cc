#include "mem/private_cache.h"

#include "common/rng.h"

namespace psllc::mem {

void PrivateCacheConfig::validate() const {
  l1i.validate();
  l1d.validate();
  l2.validate();
  PSLLC_CONFIG_CHECK(
      l1i.line_bytes == l2.line_bytes && l1d.line_bytes == l2.line_bytes,
      "all private cache levels must share one line size (L1I="
          << l1i.line_bytes << ", L1D=" << l1d.line_bytes
          << ", L2=" << l2.line_bytes << ")");
  PSLLC_CONFIG_CHECK(l2.capacity_lines() >= l1d.capacity_lines() &&
                         l2.capacity_lines() >= l1i.capacity_lines(),
                     "inclusive L2 must be at least as large as each L1");
  PSLLC_CONFIG_CHECK(l1_hit_latency > 0 && l2_hit_latency > 0,
                     "hit latencies must be positive");
}

PrivateCacheHierarchy::PrivateCacheHierarchy(const PrivateCacheConfig& config,
                                             std::uint64_t seed)
    : config_(config),
      l1i_(config.l1i, config.replacement, mix_seed(seed, 1)),
      l1d_(config.l1d, config.replacement, mix_seed(seed, 2)),
      l2_(config.l2, config.replacement, mix_seed(seed, 3)) {
  config_.validate();
}

HitLevel PrivateCacheHierarchy::access(Addr addr, AccessType type) {
  const LineAddr line = config_.l2.line_of(addr);
  SetAssocCache& l1 = l1_for(type);
  // access() updates hit/miss counters and recency internally.
  const Lookup l1_at = l1.access(line, is_write(type));
  if (l1_at.hit()) {
    ++l1_hits_;
    return HitLevel::kL1;
  }
  if (!l2_.access(line, /*write=*/false).hit()) {
    ++misses_;
    return HitLevel::kMiss;
  }
  ++l2_hits_;
  // Promote into L1 at the miss's lookup; the L1 copy carries the store's
  // dirtiness.
  fill_l1(l1, l1_at, is_write(type));
  return HitLevel::kL2;
}

std::optional<Evicted> PrivateCacheHierarchy::fill(Addr addr, AccessType type,
                                                   bool write) {
  const LineAddr line = config_.l2.line_of(addr);
  // 1. Install in L2 (clean: dirtiness lives in the L1 copy until eviction).
  //    The fill's one lookup asserts the line was not resident.
  std::optional<Evicted> l2_victim = l2_.fill(line, /*dirty=*/false);
  if (l2_victim) {
    // Inclusion: purge the victim from both L1s and merge dirtiness.
    if (auto v = purge(l1i_, l2_victim->line)) {
      l2_victim->dirty = l2_victim->dirty || v->dirty;
    }
    if (auto v = purge(l1d_, l2_victim->line)) {
      l2_victim->dirty = l2_victim->dirty || v->dirty;
    }
  }
  // 2. Install in the requesting L1.
  SetAssocCache& l1 = l1_for(type);
  fill_l1(l1, l1.lookup(line), write);
  return l2_victim;
}

ForcedEviction PrivateCacheHierarchy::force_evict(LineAddr line) {
  ForcedEviction result;
  for (SetAssocCache* level : {&l1i_, &l1d_, &l2_}) {
    if (auto v = purge(*level, line)) {
      result.was_present = true;
      result.was_dirty = result.was_dirty || v->dirty;
    }
  }
  return result;
}

bool PrivateCacheHierarchy::holds(LineAddr line) const {
  return l2_.contains(line);
}

bool PrivateCacheHierarchy::holds_dirty(LineAddr line) const {
  return l2_.is_dirty(line) || l1d_.is_dirty(line) || l1i_.is_dirty(line);
}

void PrivateCacheHierarchy::preload(LineAddr line, bool dirty) {
  PSLLC_ASSERT(!l2_.contains(line), "preload of resident line");
  const std::optional<Evicted> victim = l2_.fill(line, dirty);
  PSLLC_ASSERT(!victim.has_value(),
               "preload evicted a line — target L2 set is full");
}

bool PrivateCacheHierarchy::check_inclusion() const {
  for (LineAddr line : l1i_.resident_lines()) {
    if (!l2_.contains(line)) {
      return false;
    }
  }
  for (LineAddr line : l1d_.resident_lines()) {
    if (!l2_.contains(line)) {
      return false;
    }
  }
  return true;
}

std::optional<Evicted> PrivateCacheHierarchy::purge(SetAssocCache& level,
                                                    LineAddr line) {
  if (level.valid_lines() == 0) {
    PSLLC_AUDIT(level.store().count_valid_lines() == 0,
                "skipped a cache level whose running count says empty but "
                "which holds " << level.store().count_valid_lines()
                               << " lines");
    return std::nullopt;
  }
  return level.remove(line);
}

void PrivateCacheHierarchy::fill_l1(SetAssocCache& l1, const Lookup& at,
                                    bool dirty) {
  const std::optional<Evicted> l1_victim = l1.fill(at, dirty);
  if (l1_victim && l1_victim->dirty) {
    // Inclusive L2 must hold the victim; absorb its dirtiness locally (no
    // bus traffic: L1<->L2 transfers are core-private).
    const bool in_l2 = l2_.access(l1_victim->line, /*write=*/true).hit();
    PSLLC_ASSERT(in_l2, "inclusion violated: L1 victim 0x"
                            << std::hex << l1_victim->line
                            << " absent from L2");
  }
}

}  // namespace psllc::mem
