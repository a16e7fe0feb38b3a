// Reference models for the cache tests: the replacement policies in their
// textbook form (recency stack, insertion list, k-th eligible way, bit
// tree), a set-associative cache built from one such policy per set and a
// per-set line list, and the private L1I/L1D + L2 hierarchy over those
// caches. They move entries on every update and scan every level on every
// operation, so they share no code or shortcut with src/mem: the
// differential tests compare the flat set store and the private hierarchy
// against them step by step.
#ifndef PSLLC_TESTS_REFERENCE_CACHE_H_
#define PSLLC_TESTS_REFERENCE_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "mem/cache_types.h"

namespace psllc::mem::reference {

/// The policies as ordered lists and trees, moving entries on every update.
class ReferencePolicy {
 public:
  ReferencePolicy(ReplacementKind kind, int ways, std::uint64_t seed)
      : kind_(kind), ways_(ways), order_(static_cast<std::size_t>(ways)),
        rng_(seed) {
    // LRU: front = MRU, back = LRU. FIFO: front = oldest.
    std::iota(order_.begin(), order_.end(), 0);
    while (leaves_ < ways) {
      leaves_ *= 2;
    }
    plru_bits_.assign(static_cast<std::size_t>(leaves_), false);
  }

  void on_insert(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kFifo: move_to_back(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kRandom: break;
    }
  }

  void on_access(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_front(way); break;
      case ReplacementKind::kNmru: mru_ = way; break;
      case ReplacementKind::kTreePlru: plru_touch(way); break;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom: break;
    }
  }

  void on_invalidate(int way) {
    switch (kind_) {
      case ReplacementKind::kLru: move_to_back(way); break;
      case ReplacementKind::kFifo: move_to_front(way); break;
      case ReplacementKind::kNmru:
        if (mru_ == way) {
          mru_ = -1;
        }
        break;
      case ReplacementKind::kRandom:
      case ReplacementKind::kTreePlru: break;
    }
  }

  int select_victim(std::uint64_t mask) {
    auto eligible = [mask](int w) { return ((mask >> w) & 1) != 0; };
    switch (kind_) {
      case ReplacementKind::kLru:
        for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
          if (eligible(*it)) {
            return *it;
          }
        }
        return -1;
      case ReplacementKind::kFifo:
        for (int w : order_) {
          if (eligible(w)) {
            return w;
          }
        }
        return -1;
      case ReplacementKind::kRandom:
        return kth_eligible(eligible, -1);
      case ReplacementKind::kNmru: {
        int count = 0;
        int only = -1;
        for (int w = 0; w < ways_; ++w) {
          if (eligible(w)) {
            ++count;
            only = w;
          }
        }
        if (count == 1) {
          return only;
        }
        return kth_eligible(eligible, mru_);
      }
      case ReplacementKind::kTreePlru: {
        int node = 1;
        while (node < leaves_) {
          node = 2 * node + (plru_bits_[static_cast<std::size_t>(node)] ? 1 : 0);
        }
        const int way = node - leaves_;
        if (way < ways_ && eligible(way)) {
          return way;
        }
        for (int w = 0; w < ways_; ++w) {
          if (eligible(w)) {
            return w;
          }
        }
        return -1;
      }
    }
    return -1;
  }

 private:
  /// Uniform pick among eligible ways other than `skip`, ascending.
  template <typename Eligible>
  int kth_eligible(const Eligible& eligible, int skip) {
    int count = 0;
    for (int w = 0; w < ways_; ++w) {
      count += (eligible(w) && w != skip) ? 1 : 0;
    }
    if (count == 0) {
      return -1;
    }
    auto pick = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(count)));
    for (int w = 0; w < ways_; ++w) {
      if (eligible(w) && w != skip && pick-- == 0) {
        return w;
      }
    }
    return -1;
  }

  void move_to_front(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.insert(order_.begin(), way);
  }
  void move_to_back(int way) {
    order_.erase(std::find(order_.begin(), order_.end(), way));
    order_.push_back(way);
  }
  void plru_touch(int way) {
    for (int node = leaves_ + way; node > 1; node /= 2) {
      plru_bits_[static_cast<std::size_t>(node / 2)] = node % 2 == 0;
    }
  }

  ReplacementKind kind_;
  int ways_;
  std::vector<int> order_;
  Rng rng_;
  int mru_ = -1;
  int leaves_ = 1;
  std::vector<bool> plru_bits_;
};

/// A line leaving a reference cache.
struct RefEvicted {
  LineAddr line = 0;
  bool dirty = false;
  bool operator==(const RefEvicted&) const = default;
};

/// A set-associative cache: per set a list of (line, state) by way and a
/// ReferencePolicy seeded mix_seed(seed, set), as the caches under test
/// seed theirs.
class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& geometry, ReplacementKind kind,
                 std::uint64_t seed)
      : geometry_(geometry) {
    for (int s = 0; s < geometry.num_sets; ++s) {
      sets_.push_back(Set{std::vector<LineMeta>(
                              static_cast<std::size_t>(geometry.num_ways)),
                          ReferencePolicy(kind, geometry.num_ways,
                                          mix_seed(seed, static_cast<
                                                   std::uint64_t>(s)))});
    }
  }

  [[nodiscard]] bool contains(LineAddr line) const {
    return way_of(set_for(line), line) >= 0;
  }

  /// Hit: touches, marks dirty on a write and returns true.
  bool access(LineAddr line, bool write) {
    Set& set = set_for(line);
    const int way = way_of(set, line);
    if (way < 0) {
      ++misses_;
      return false;
    }
    ++hits_;
    set.policy.on_access(way);
    if (write) {
      set.lines[static_cast<std::size_t>(way)].state = LineState::kDirty;
    }
    return true;
  }

  /// Installs an absent line in the lowest free way, else over the
  /// policy's victim among all ways.
  std::optional<RefEvicted> fill(LineAddr line, bool dirty) {
    Set& set = set_for(line);
    std::optional<RefEvicted> victim;
    int way = -1;
    std::uint64_t valid = 0;
    for (int w = 0; w < geometry_.num_ways; ++w) {
      if (set.lines[static_cast<std::size_t>(w)].valid()) {
        valid |= std::uint64_t{1} << w;
      } else if (way < 0) {
        way = w;
      }
    }
    if (way < 0) {
      way = set.policy.select_victim(valid);
      victim = invalidate(set, way);
    }
    set.lines[static_cast<std::size_t>(way)] =
        LineMeta{line, dirty ? LineState::kDirty : LineState::kClean};
    set.policy.on_insert(way);
    return victim;
  }

  std::optional<RefEvicted> remove(LineAddr line) {
    Set& set = set_for(line);
    const int way = way_of(set, line);
    if (way < 0) {
      return std::nullopt;
    }
    return invalidate(set, way);
  }

  /// Valid lines in ascending order.
  [[nodiscard]] std::vector<LineAddr> lines() const {
    std::vector<LineAddr> out;
    for (const Set& set : sets_) {
      for (const LineMeta& meta : set.lines) {
        if (meta.valid()) {
          out.push_back(meta.line);
        }
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::int64_t hits() const { return hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  struct Set {
    std::vector<LineMeta> lines;
    ReferencePolicy policy;
  };

  Set& set_for(LineAddr line) {
    return sets_[static_cast<std::size_t>(line % static_cast<std::uint64_t>(
                                                    geometry_.num_sets))];
  }
  [[nodiscard]] const Set& set_for(LineAddr line) const {
    return sets_[static_cast<std::size_t>(line % static_cast<std::uint64_t>(
                                                    geometry_.num_sets))];
  }
  static int way_of(const Set& set, LineAddr line) {
    for (std::size_t w = 0; w < set.lines.size(); ++w) {
      if (set.lines[w].valid() && set.lines[w].line == line) {
        return static_cast<int>(w);
      }
    }
    return -1;
  }
  static RefEvicted invalidate(Set& set, int way) {
    LineMeta& meta = set.lines[static_cast<std::size_t>(way)];
    const RefEvicted old{meta.line, meta.dirty()};
    meta = LineMeta{};
    set.policy.on_invalidate(way);
    return old;
  }

  CacheGeometry geometry_;
  std::vector<Set> sets_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

/// Which level served a reference access.
enum class RefLevel : std::uint8_t { kL1, kL2, kMiss };

/// The private hierarchy's protocol (inclusive L2, write-allocate L1 copy
/// carrying the dirtiness, L2 victims purged from both L1s with their
/// dirtiness merged, back-invalidations removing a line everywhere), over
/// reference caches seeded like the real levels: mix_seed(seed, 1/2/3).
class ReferenceHierarchy {
 public:
  ReferenceHierarchy(const CacheGeometry& l1i, const CacheGeometry& l1d,
                     const CacheGeometry& l2, ReplacementKind kind,
                     std::uint64_t seed)
      : l1i_(l1i, kind, mix_seed(seed, 1)),
        l1d_(l1d, kind, mix_seed(seed, 2)),
        l2_(l2, kind, mix_seed(seed, 3)) {}

  RefLevel access(LineAddr line, AccessType type) {
    ReferenceCache& l1 = type == AccessType::kIfetch ? l1i_ : l1d_;
    if (l1.access(line, is_write(type))) {
      ++l1_hits_;
      return RefLevel::kL1;
    }
    if (!l2_.access(line, false)) {
      ++misses_;
      return RefLevel::kMiss;
    }
    ++l2_hits_;
    fill_l1(l1, line, is_write(type));
    return RefLevel::kL2;
  }

  std::optional<RefEvicted> fill(LineAddr line, AccessType type, bool write) {
    std::optional<RefEvicted> victim = l2_.fill(line, false);
    if (victim) {
      for (ReferenceCache* l1 : {&l1i_, &l1d_}) {
        if (const auto v = l1->remove(victim->line)) {
          victim->dirty = victim->dirty || v->dirty;
        }
      }
    }
    fill_l1(type == AccessType::kIfetch ? l1i_ : l1d_, line, write);
    return victim;
  }

  /// (present, dirty) of a back-invalidation.
  std::pair<bool, bool> force_evict(LineAddr line) {
    std::pair<bool, bool> result{false, false};
    for (ReferenceCache* level : {&l1i_, &l1d_, &l2_}) {
      if (const auto v = level->remove(line)) {
        result.first = true;
        result.second = result.second || v->dirty;
      }
    }
    return result;
  }

  [[nodiscard]] const ReferenceCache& l1i() const { return l1i_; }
  [[nodiscard]] const ReferenceCache& l1d() const { return l1d_; }
  [[nodiscard]] const ReferenceCache& l2() const { return l2_; }
  [[nodiscard]] std::int64_t l1_hits() const { return l1_hits_; }
  [[nodiscard]] std::int64_t l2_hits() const { return l2_hits_; }
  [[nodiscard]] std::int64_t misses() const { return misses_; }

 private:
  void fill_l1(ReferenceCache& l1, LineAddr line, bool dirty) {
    const std::optional<RefEvicted> victim = l1.fill(line, dirty);
    if (victim && victim->dirty) {
      l2_.access(victim->line, true);
    }
  }

  ReferenceCache l1i_;
  ReferenceCache l1d_;
  ReferenceCache l2_;
  std::int64_t l1_hits_ = 0;
  std::int64_t l2_hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace psllc::mem::reference

#endif  // PSLLC_TESTS_REFERENCE_CACHE_H_
