// Tests for hierarchical partitioning: the aggregate speed function's
// shape requirement and semantics, the flat-equivalence property, and the
// two-level distribution invariants.
#include <gtest/gtest.h>

#include <numeric>

#include "core/hierarchy.hpp"
#include "core/combined.hpp"
#include "core/finetune.hpp"
#include "core/fleetgen.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

TEST(AggregateSpeed, SingleMemberBehavesLikeTheMember) {
  const auto e = fpm::test::power_ensemble(1);
  const AggregateSpeed agg({e.owned[0].get()});
  const SpeedFunction& m = *e.owned[0];
  for (double x = 100.0; x < m.max_size(); x *= 3.0)
    EXPECT_NEAR(agg.speed(x), m.speed(x), 1e-6 * m.speed(x)) << x;
}

TEST(AggregateSpeed, SatisfiesShapeRequirement) {
  for (const auto& e : fpm::test::all_ensembles(4)) {
    if (e.name == "exp-decay") continue;  // ratios span ~300 decades; the
                                          // sampled check loses precision
    const AggregateSpeed agg(e.list());
    EXPECT_TRUE(satisfies_shape_requirement(agg)) << e.name;
  }
}

TEST(AggregateSpeed, ConstantMembersSumTheirSpeeds) {
  const ConstantSpeed a(100.0, 1e9), b(150.0, 1e9), c(250.0, 1e9);
  const AggregateSpeed agg({&a, &b, &c});
  // A group of constant-speed machines is a constant 500-speed machine.
  for (double x = 10.0; x < 1e8; x *= 10.0)
    EXPECT_NEAR(agg.speed(x), 500.0, 1e-6 * 500.0) << x;
}

TEST(AggregateSpeed, IntersectIsGroupTotalAtThatSlope) {
  const auto e = fpm::test::linear_ensemble(3);
  const AggregateSpeed agg(e.list());
  for (const double c : {1e-6, 1e-5, 1e-4}) {
    EXPECT_NEAR(agg.intersect(c), total_size_at(e.list(), c),
                1e-9 * total_size_at(e.list(), c))
        << c;
    // Consistency: speed at that size divided by the size gives the slope.
    const double x = agg.intersect(c);
    EXPECT_NEAR(agg.speed(x) / x, c, 1e-6 * c);
  }
}

TEST(AggregateSpeed, RejectsBadGroups) {
  EXPECT_THROW(AggregateSpeed({}), std::invalid_argument);
  EXPECT_THROW(AggregateSpeed({nullptr}), std::invalid_argument);
}

TEST(Hierarchical, MatchesFlatPartitioningAcrossFamilies) {
  // The headline property: two-level with exact aggregates == flat optimal
  // (up to integer rounding slack).
  for (const auto& e : fpm::test::all_ensembles(6)) {
    const SpeedList flat_list = e.list();
    // Groups: {0,1}, {2,3,4}, {5}.
    const std::vector<SpeedList> groups{
        {flat_list[0], flat_list[1]},
        {flat_list[2], flat_list[3], flat_list[4]},
        {flat_list[5]}};
    const std::int64_t n = 1000003;
    const HierarchicalResult two_level = partition_hierarchical(groups, n);
    const auto flat_counts = two_level.flatten();
    ASSERT_EQ(flat_counts.size(), 6u) << e.name;
    EXPECT_EQ(std::accumulate(flat_counts.begin(), flat_counts.end(),
                              std::int64_t{0}),
              n)
        << e.name;

    Distribution as_flat;
    as_flat.counts = flat_counts;
    const Distribution best = exact_optimum(flat_list, n);
    // Allow a few elements of rounding slack across the two levels.
    double slack = 0.0;
    for (std::size_t i = 0; i < flat_list.size(); ++i) {
      const double x = static_cast<double>(best.counts[i]);
      slack = std::max(slack, 4.0 * (flat_list[i]->time(x + 1.0) -
                                     flat_list[i]->time(x)));
    }
    EXPECT_LE(makespan(flat_list, as_flat),
              makespan(flat_list, best) * 1.001 + slack)
        << e.name;
  }
}

TEST(Hierarchical, GroupCountsSumAndWithinSumsMatch) {
  const auto e = fpm::test::mixed_ensemble();
  const SpeedList list = e.list();
  const std::vector<SpeedList> groups{{list[0], list[1], list[2]},
                                      {list[3], list[4]}};
  const HierarchicalResult r = partition_hierarchical(groups, 777777);
  ASSERT_EQ(r.group_counts.size(), 2u);
  ASSERT_EQ(r.within.size(), 2u);
  EXPECT_EQ(r.group_counts[0] + r.group_counts[1], 777777);
  EXPECT_EQ(r.within[0].total(), r.group_counts[0]);
  EXPECT_EQ(r.within[1].total(), r.group_counts[1]);
  EXPECT_EQ(r.stats.algorithm, "hierarchical");
}

TEST(Hierarchical, EmptyShareGroupsGetZeroedDistributions) {
  // One overwhelming group and one feeble one with a tiny n: the feeble
  // group may receive nothing and must still produce a valid (zero)
  // within-distribution.
  const ConstantSpeed fast(1e6, 1e12);
  const ConstantSpeed slow(1.0, 1e12);
  const std::vector<SpeedList> groups{{&fast}, {&slow}};
  const HierarchicalResult r = partition_hierarchical(groups, 10);
  EXPECT_EQ(r.group_counts[0] + r.group_counts[1], 10);
  EXPECT_EQ(r.within[1].total(), r.group_counts[1]);
}

TEST(Hierarchical, RejectsEmptyInput) {
  EXPECT_THROW(partition_hierarchical({}, 10), std::invalid_argument);
}

TEST(Hierarchical, SearchCountersCoverEveryLevel) {
  // The stats sum the top-level solve and every group's inner solve, the
  // search-phase counters included. Fine-tuning solves no lines, so each
  // solve's line solves are all search-phase, and so is their sum.
  for (const auto& [p, seed] :
       {std::pair<std::size_t, std::uint64_t>{8, 1}, {12, 2}}) {
    const SyntheticFleet fleet = make_synthetic_fleet(p, seed);
    const SpeedList list = fleet.list();
    std::vector<SpeedList> groups;
    for (std::size_t g = 0; g < p; g += 4)
      groups.emplace_back(list.begin() + static_cast<std::ptrdiff_t>(g),
                          list.begin() + static_cast<std::ptrdiff_t>(g + 4));
    const HierarchicalResult r = partition_hierarchical(groups, 10000000);
    EXPECT_GT(r.stats.intersect_solves, 0) << "p=" << p;
    EXPECT_EQ(r.stats.search_intersect_solves, r.stats.intersect_solves)
        << "p=" << p;
    EXPECT_LE(r.stats.search_speed_evals, r.stats.speed_evals) << "p=" << p;
    EXPECT_GT(r.stats.search_speed_evals, 0) << "p=" << p;
  }
}

TEST(Hierarchical, NestedAggregatesCompose) {
  // Aggregates are SpeedFunctions, so a group of groups works: compare a
  // two-deep aggregate against the flat aggregate of all members.
  const auto e = fpm::test::power_ensemble(4);
  const SpeedList list = e.list();
  const AggregateSpeed inner_a({list[0], list[1]});
  const AggregateSpeed inner_b({list[2], list[3]});
  const AggregateSpeed outer({&inner_a, &inner_b});
  const AggregateSpeed flat(list);
  for (double x = 1e4; x < flat.max_size() * 0.5; x *= 7.0)
    EXPECT_NEAR(outer.speed(x), flat.speed(x), 1e-4 * flat.speed(x)) << x;
}

}  // namespace
}  // namespace fpm::core
