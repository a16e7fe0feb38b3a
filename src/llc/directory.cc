#include "llc/directory.h"

#include <bit>

#include "common/assert.h"

namespace psllc::llc {

namespace {

std::uint64_t core_bit(CoreId core) {
  PSLLC_ASSERT(core.valid() && core.value < InclusiveDirectory::kMaxCores,
               "directory tracks cores 0.." << InclusiveDirectory::kMaxCores - 1
                                            << ", got " << to_string(core));
  return std::uint64_t{1} << core.value;
}

}  // namespace

InclusiveDirectory::InclusiveDirectory(int max_lines) : max_lines_(max_lines) {
  PSLLC_ASSERT(max_lines > 0, "directory needs room for >=1 line");
  const std::size_t slots =
      std::bit_ceil(2 * static_cast<std::size_t>(max_lines));
  slots_.resize(slots);
  index_mask_ = slots - 1;
  shift_ = 64 - std::countr_zero(slots);
}

void InclusiveDirectory::occupy(std::size_t i, LineAddr line) {
  PSLLC_ASSERT(size_ < max_lines_,
               "directory would track more than " << max_lines_
                                                  << " lines (inclusion)");
  slots_[i].line = line;
  ++size_;
}

void InclusiveDirectory::add_sharer(LineAddr line, CoreId core) {
  const std::uint64_t bit = core_bit(core);
  const std::size_t i = probe(line);
  if (slots_[i].sharers == 0) {
    occupy(i, line);
  }
  PSLLC_ASSERT((slots_[i].sharers & bit) == 0,
               to_string(core) << " already shares line 0x" << std::hex
                               << line);
  slots_[i].sharers |= bit;
}

bool InclusiveDirectory::remove_sharer(LineAddr line, CoreId core) {
  const std::uint64_t bit = core_bit(core);
  const std::size_t i = probe(line);
  if ((slots_[i].sharers & bit) == 0) {
    return false;
  }
  slots_[i].sharers &= ~bit;
  if (slots_[i].sharers == 0) {
    erase_at(i);
  }
  return true;
}

std::vector<CoreId> InclusiveDirectory::sharers(LineAddr line) const {
  std::vector<CoreId> cores;
  for (std::uint64_t m = sharer_mask(line); m != 0; m &= m - 1) {
    cores.push_back(CoreId{std::countr_zero(m)});
  }
  return cores;
}

bool InclusiveDirectory::is_shared_by(LineAddr line, CoreId core) const {
  return (sharer_mask(line) & core_bit(core)) != 0;
}

int InclusiveDirectory::sharer_count(LineAddr line) const {
  return std::popcount(sharer_mask(line));
}

void InclusiveDirectory::clear_line(LineAddr line) {
  const std::size_t i = probe(line);
  if (slots_[i].sharers != 0) {
    erase_at(i);
  }
}

void InclusiveDirectory::erase_at(std::size_t i) {
  --size_;
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & index_mask_; slots_[j].sharers != 0;
       j = (j + 1) & index_mask_) {
    // The entry at j may move back into the hole iff the hole lies within
    // its probe run, i.e. at or after its home slot (cyclically).
    const std::size_t from_home = (j - home(slots_[j].line)) & index_mask_;
    if (from_home >= ((j - hole) & index_mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
}

void InclusiveDirectory::absorb(const InclusiveDirectory& other) {
  other.for_each_line([this](LineAddr line, std::uint64_t sharers) {
    const std::size_t i = probe(line);
    PSLLC_ASSERT(slots_[i].sharers == 0,
                 "absorb: line 0x" << std::hex << line
                                   << " tracked by both directories");
    occupy(i, line);
    slots_[i].sharers = sharers;
  });
}

}  // namespace psllc::llc
