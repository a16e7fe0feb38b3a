#include "mem/set_assoc_cache.h"

#include "common/rng.h"

namespace psllc::mem {

SetAssocCache::SetAssocCache(const CacheGeometry& geometry,
                             ReplacementKind replacement, std::uint64_t seed)
    : geometry_(geometry) {
  geometry_.validate();
  sets_.reserve(static_cast<std::size_t>(geometry_.num_sets));
  for (int s = 0; s < geometry_.num_sets; ++s) {
    sets_.emplace_back(geometry_.num_ways, replacement,
                       mix_seed(seed, static_cast<std::uint64_t>(s)));
  }
}

bool SetAssocCache::contains(LineAddr line) const {
  return set_for(line).find(line) >= 0;
}

bool SetAssocCache::is_dirty(LineAddr line) const {
  const CacheSet& set = set_for(line);
  const int way = set.find(line);
  return way >= 0 && set.way(way).dirty();
}

bool SetAssocCache::access(LineAddr line, bool write) {
  CacheSet& set = set_for(line);
  const int way = set.find(line);
  if (way < 0) {
    ++misses_;
    return false;
  }
  ++hits_;
  set.touch(way);
  if (write) {
    set.mark_dirty(way);
  }
  return true;
}

std::optional<Evicted> SetAssocCache::fill(LineAddr line, bool dirty) {
  CacheSet& set = set_for(line);
  PSLLC_ASSERT(set.find(line) < 0,
               "fill of already-present line 0x" << std::hex << line);
  std::optional<Evicted> victim;
  int way = set.find_free();
  if (way < 0) {
    way = set.select_victim_any();
    PSLLC_ASSERT(way >= 0, "full set must yield a victim");
    const LineMeta old = set.invalidate(way);
    victim = Evicted{old.line, old.dirty()};
  }
  set.insert(line, way, dirty ? LineState::kDirty : LineState::kClean);
  return victim;
}

std::optional<Evicted> SetAssocCache::remove(LineAddr line) {
  CacheSet& set = set_for(line);
  const int way = set.find(line);
  if (way < 0) {
    return std::nullopt;
  }
  const LineMeta old = set.invalidate(way);
  return Evicted{old.line, old.dirty()};
}

void SetAssocCache::mark_clean(LineAddr line) {
  CacheSet& set = set_for(line);
  const int way = set.find(line);
  if (way >= 0) {
    set.mark_clean(way);
  }
}

int SetAssocCache::valid_lines() const {
  int count = 0;
  for (const auto& set : sets_) {
    count += set.valid_count();
  }
  return count;
}

std::vector<LineAddr> SetAssocCache::resident_lines() const {
  std::vector<LineAddr> lines;
  for (const auto& set : sets_) {
    for (const LineMeta& meta : set.lines()) {
      if (meta.valid()) {
        lines.push_back(meta.line);
      }
    }
  }
  return lines;
}

const CacheSet& SetAssocCache::set_at(int index) const {
  PSLLC_ASSERT(index >= 0 && index < geometry_.num_sets,
               "set index " << index);
  return sets_[static_cast<std::size_t>(index)];
}

CacheSet& SetAssocCache::set_for(LineAddr line) {
  return sets_[static_cast<std::size_t>(geometry_.set_of(line))];
}

const CacheSet& SetAssocCache::set_for(LineAddr line) const {
  return sets_[static_cast<std::size_t>(geometry_.set_of(line))];
}

}  // namespace psllc::mem
