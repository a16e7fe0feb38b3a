// Tests for the set-index mappings (modulo vs XOR-fold): determinism,
// range validity, actual spreading differences, and that partition
// isolation and the WCL bounds are mapping-independent (paper Section 2).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/system.h"
#include "common/rng.h"
#include "core/wcl_analysis.h"
#include "llc/partition.h"
#include "sim/workload.h"

namespace psllc::llc {
namespace {

/// map_set as first written: `%` for the index and a shift loop for the
/// xor-fold width. The strength-reduced map_set must agree with it.
int reference_map_set(const PartitionSpec& spec, LineAddr line) {
  const auto sets = static_cast<std::uint64_t>(spec.num_sets);
  std::uint64_t index = line % sets;
  if (spec.mapping == SetMapping::kXorFold) {
    int shift = 1;
    while ((1 << shift) < spec.num_sets) {
      ++shift;
    }
    index = (line ^ (line >> shift)) % sets;
  }
  return spec.first_set + static_cast<int>(index);
}

TEST(SetMapping, MatchesReferenceExpressionsAtExtremeLines) {
  constexpr LineAddr k32 = LineAddr{1} << 32;
  std::vector<LineAddr> lines = {0,
                                 1,
                                 31,
                                 32,
                                 k32 - 1,
                                 k32,
                                 k32 + 1,
                                 LineAddr{1} << 63,
                                 (LineAddr{1} << 63) - 1,
                                 std::numeric_limits<LineAddr>::max() - 1,
                                 std::numeric_limits<LineAddr>::max()};
  Rng rng(31);
  for (int i = 0; i < 200; ++i) {
    lines.push_back(rng.next_u64());
  }
  for (const SetMapping mapping : {SetMapping::kModulo, SetMapping::kXorFold}) {
    for (const int sets :
         {1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 33, 64, 100, 128, 1024, 1000}) {
      const PartitionSpec spec{3, sets, 0, 2, mapping};
      for (const LineAddr line : lines) {
        EXPECT_EQ(spec.map_set(line), reference_map_set(spec, line))
            << to_string(mapping) << " sets " << sets << " line " << line;
      }
    }
  }
}

TEST(SetMapping, ModuloMatchesDefinition) {
  PartitionSpec spec{4, 8, 0, 2};
  for (LineAddr line = 0; line < 64; ++line) {
    EXPECT_EQ(spec.map_set(line),
              4 + static_cast<int>(line % 8));
  }
}

TEST(SetMapping, XorFoldStaysInRange) {
  PartitionSpec spec{4, 8, 0, 2, SetMapping::kXorFold};
  for (LineAddr line = 0; line < 10000; ++line) {
    const int set = spec.map_set(line);
    EXPECT_GE(set, 4);
    EXPECT_LT(set, 12);
  }
}

TEST(SetMapping, XorFoldIsDeterministic) {
  PartitionSpec spec{0, 32, 0, 16, SetMapping::kXorFold};
  for (LineAddr line = 0; line < 256; ++line) {
    EXPECT_EQ(spec.map_set(line), spec.map_set(line));
  }
}

TEST(SetMapping, XorFoldSpreadsPowerOfTwoStrides) {
  // A stride equal to the set count maps everything to one set under
  // modulo but spreads under XOR-fold.
  PartitionSpec modulo{0, 32, 0, 16};
  PartitionSpec folded{0, 32, 0, 16, SetMapping::kXorFold};
  std::set<int> modulo_sets;
  std::set<int> folded_sets;
  for (int i = 0; i < 64; ++i) {
    const LineAddr line = static_cast<LineAddr>(i) * 32;
    modulo_sets.insert(modulo.map_set(line));
    folded_sets.insert(folded.map_set(line));
  }
  EXPECT_EQ(modulo_sets.size(), 1u);
  EXPECT_GT(folded_sets.size(), 8u);
}

TEST(SetMapping, SingleSetPartitionUnaffected) {
  PartitionSpec spec{7, 1, 0, 4, SetMapping::kXorFold};
  for (LineAddr line = 0; line < 100; ++line) {
    EXPECT_EQ(spec.map_set(line), 7);
  }
}

TEST(SetMapping, IsolationHoldsUnderXorFold) {
  // Two partitions with XOR-fold mapping never cross-evict.
  core::SystemConfig config;
  config.num_cores = 2;
  PartitionMap partitions(config.llc.geometry);
  PartitionSpec left{0, 16, 0, 16, SetMapping::kXorFold};
  PartitionSpec right{16, 16, 0, 16, SetMapping::kXorFold};
  partitions.add_partition(left, {CoreId{0}});
  partitions.add_partition(right, {CoreId{1}});
  core::System system(config, std::move(partitions));
  system.preload_owned_line(CoreId{1}, 0x999);
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 65536;
  workload.accesses = 2000;
  system.set_trace(CoreId{0}, sim::make_uniform_random_trace(0, workload, 3));
  ASSERT_TRUE(system.run(1'000'000'000).all_done);
  EXPECT_GE(system.llc().find_way(CoreId{1}, 0x999), 0);
}

class MappingBoundsHold : public ::testing::TestWithParam<SetMapping> {};

TEST_P(MappingBoundsHold, ObservedWithinAnalytical) {
  // Theorems 4.7/4.8 are mapping-agnostic; verify empirically.
  core::ExperimentSetup setup = core::make_paper_setup("SS(2,4,4)", 4);
  PartitionMap remapped(setup.config.llc.geometry);
  PartitionSpec spec = setup.partitions().spec(0);
  spec.mapping = GetParam();
  remapped.add_partition(spec, setup.partitions().sharers(0));
  core::System system(setup.config, std::move(remapped));
  sim::RandomWorkloadOptions workload;
  workload.range_bytes = 16384;
  workload.accesses = 4000;
  workload.write_fraction = 0.4;
  const auto traces = sim::make_disjoint_random_workload(4, workload, 23);
  for (int c = 0; c < 4; ++c) {
    system.set_trace(CoreId{c}, traces[static_cast<std::size_t>(c)]);
  }
  ASSERT_TRUE(system.run(2'000'000'000).all_done);
  EXPECT_LE(system.tracker().max_service_latency(),
            core::analytical_wcl_cycles(setup, CoreId{0}));
  system.llc().check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Mappings, MappingBoundsHold,
                         ::testing::Values(SetMapping::kModulo,
                                           SetMapping::kXorFold),
                         [](const auto& info) {
                           return info.param == SetMapping::kModulo
                                      ? "modulo"
                                      : "xorfold";
                         });

}  // namespace
}  // namespace psllc::llc
