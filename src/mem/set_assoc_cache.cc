#include "mem/set_assoc_cache.h"

namespace psllc::mem {

namespace {

/// `geometry` after validation, so the store is only built for a valid
/// shape.
const CacheGeometry& validated(const CacheGeometry& geometry) {
  geometry.validate();
  return geometry;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geometry,
                             ReplacementKind replacement, std::uint64_t seed)
    : geometry_(validated(geometry)),
      store_(geometry_.num_sets, geometry_.num_ways, replacement, seed) {}

bool SetAssocCache::is_dirty(LineAddr line) const {
  const Lookup at = lookup(line);
  return at.hit() && store_.way(at.set, at.way).dirty();
}

std::optional<Evicted> SetAssocCache::fill(const Lookup& at, bool dirty) {
  PSLLC_ASSERT(!at.hit(),
               "fill of already-present line 0x" << std::hex << at.line);
  std::optional<Evicted> victim;
  int way = store_.find_free(at.set);
  if (way < 0) {
    way = store_.select_victim_any(at.set);
    PSLLC_ASSERT(way >= 0, "full set must yield a victim");
    const LineMeta old = store_.invalidate(at.set, way);
    victim = Evicted{old.line, old.dirty()};
  }
  store_.place(at.set, at.line, way,
               dirty ? LineState::kDirty : LineState::kClean);
  return victim;
}

std::optional<Evicted> SetAssocCache::remove(LineAddr line) {
  const Lookup at = lookup(line);
  if (!at.hit()) {
    return std::nullopt;
  }
  const LineMeta old = store_.invalidate(at.set, at.way);
  return Evicted{old.line, old.dirty()};
}

void SetAssocCache::mark_clean(LineAddr line) {
  const Lookup at = lookup(line);
  if (at.hit()) {
    store_.mark_clean(at.set, at.way);
  }
}

std::vector<LineAddr> SetAssocCache::resident_lines() const {
  std::vector<LineAddr> lines;
  for (int s = 0; s < store_.sets(); ++s) {
    for (int w = 0; w < store_.ways(); ++w) {
      const LineMeta meta = store_.way(s, w);
      if (meta.valid()) {
        lines.push_back(meta.line);
      }
    }
  }
  return lines;
}

}  // namespace psllc::mem
