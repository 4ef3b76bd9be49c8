// Tests for the general-problem extensions: capacity-bounded partitioning
// and contiguous weighted partitioning.
#include <gtest/gtest.h>

#include "core/bounded.hpp"
#include "helpers.hpp"
#include "util/rng.hpp"

namespace fpm::core {
namespace {

TEST(PartitionBounded, UnbindingBoundsMatchUnbounded) {
  const auto e = fpm::test::power_ensemble(4);
  const std::int64_t n = 100000;
  const std::vector<std::int64_t> loose(4, n);
  const PartitionResult bounded =
      partition_bounded(e.list(), n, {.bounds = loose});
  const Distribution plain = exact_optimum(e.list(), n);
  EXPECT_EQ(bounded.distribution.total(), n);
  EXPECT_NEAR(makespan(e.list(), bounded.distribution),
              makespan(e.list(), plain),
              0.01 * makespan(e.list(), plain));
}

TEST(PartitionBounded, RespectsEveryBound) {
  const auto e = fpm::test::linear_ensemble(5);
  const std::int64_t n = 50000;
  const std::vector<std::int64_t> bounds{5000, 8000, 30000, 20000, 50000};
  const PartitionResult r = partition_bounded(e.list(), n, {.bounds = bounds});
  EXPECT_EQ(r.distribution.total(), n);
  for (std::size_t i = 0; i < bounds.size(); ++i)
    EXPECT_LE(r.distribution.counts[i], bounds[i]) << i;
}

TEST(PartitionBounded, TightBoundsForceExactFill) {
  const auto e = fpm::test::constant_ensemble(3);
  const std::vector<std::int64_t> bounds{10, 20, 30};
  const PartitionResult r = partition_bounded(e.list(), 60, {.bounds = bounds});
  EXPECT_EQ(r.distribution.counts, (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(PartitionBounded, ThrowsWhenInfeasible) {
  const auto e = fpm::test::constant_ensemble(2);
  const std::vector<std::int64_t> bounds{3, 4};
  EXPECT_THROW(partition_bounded(e.list(), 8, {.bounds = bounds}),
               std::invalid_argument);
  EXPECT_THROW(partition_bounded(e.list(), 8, {.bounds = {-1, 20}}),
               std::invalid_argument);
  EXPECT_THROW(partition_bounded(e.list(), 8, {.bounds = {5}}),
               std::invalid_argument);
}

TEST(PartitionBounded, NearOptimalAgainstBoundedOracle) {
  for (const auto& e : fpm::test::all_ensembles(4)) {
    const SpeedList speeds = e.list();
    const std::int64_t n = 20000;
    // Bind the two fastest-looking processors tightly.
    std::vector<std::int64_t> bounds{1000, 2000, 20000, 20000};
    const PartitionResult got =
        partition_bounded(speeds, n, {.bounds = bounds});
    const Distribution best = exact_optimum_bounded(speeds, n, bounds);
    EXPECT_EQ(got.distribution.total(), n) << e.name;
    for (std::size_t i = 0; i < bounds.size(); ++i)
      ASSERT_LE(got.distribution.counts[i], bounds[i]) << e.name;
    // The clamp-and-re-solve heuristic is near-optimal, not exact: allow a
    // modest margin over the true bounded optimum.
    EXPECT_LE(makespan(speeds, got.distribution),
              makespan(speeds, best) * 1.05)
        << e.name;
  }
}

TEST(ExactOptimumBounded, MatchesUnboundedWhenLoose) {
  const auto e = fpm::test::unimodal_ensemble(3);
  const std::int64_t n = 5000;
  const std::vector<std::int64_t> loose(3, n);
  const Distribution a = exact_optimum_bounded(e.list(), n, loose);
  const Distribution b = exact_optimum(e.list(), n);
  EXPECT_EQ(makespan(e.list(), a), makespan(e.list(), b));
}

TEST(ExactOptimumBounded, SaturatesBindingBounds) {
  // One fast processor with a tiny bound: the others must absorb the rest.
  const auto e = fpm::test::constant_ensemble(3);  // speeds 100,150,200
  const std::vector<std::int64_t> bounds{1000000, 1000000, 5};
  const Distribution d = exact_optimum_bounded(e.list(), 1000, bounds);
  EXPECT_EQ(d.total(), 1000);
  EXPECT_LE(d.counts[2], 5);
  EXPECT_EQ(d.counts[2], 5);  // binding: the fast processor fills its bound
}

// ---------------------------------------------------------------------------
// Contiguous weighted partitioning.
// ---------------------------------------------------------------------------

TEST(WeightedContiguous, UniformWeightsMatchUnweightedShares) {
  const auto e = fpm::test::constant_ensemble(3);  // speeds 100,150,200
  const std::vector<double> w(450, 1.0);
  const auto b = partition_weighted_contiguous(e.list(), w);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), w.size());
  // Shares proportional to 100:150:200 = 100,150,200 elements.
  EXPECT_NEAR(static_cast<double>(b[1] - b[0]), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(b[2] - b[1]), 150.0, 2.0);
  EXPECT_NEAR(static_cast<double>(b[3] - b[2]), 200.0, 2.0);
}

TEST(WeightedContiguous, CoversEveryElementExactlyOnce) {
  const auto e = fpm::test::linear_ensemble(4);
  util::Rng rng(5);
  std::vector<double> w(1000);
  for (double& x : w) x = rng.uniform(0.1, 10.0);
  const auto b = partition_weighted_contiguous(e.list(), w);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), w.size());
  for (std::size_t i = 0; i + 1 < b.size(); ++i) EXPECT_LE(b[i], b[i + 1]);
}

TEST(WeightedContiguous, BalancesHeavyPrefix) {
  // Heavy elements first: the first processor must receive fewer elements
  // than under uniform weights.
  const auto e = fpm::test::constant_ensemble(2);  // speeds 100,150
  std::vector<double> w(200, 1.0);
  for (std::size_t j = 0; j < 50; ++j) w[j] = 20.0;
  const auto b = partition_weighted_contiguous(e.list(), w);
  const std::vector<double> uniform(200, 1.0);
  const auto bu = partition_weighted_contiguous(e.list(), uniform);
  EXPECT_LT(b[1], bu[1]);
}

TEST(WeightedContiguous, MakespanIsNearOptimalAcrossSplits) {
  // Exhaustive check on a small instance: no contiguous split beats the
  // returned one by more than round-off.
  const auto e = fpm::test::constant_ensemble(2);
  util::Rng rng(17);
  std::vector<double> w(40);
  for (double& x : w) x = rng.uniform(0.5, 3.0);
  const auto b = partition_weighted_contiguous(e.list(), w);
  const double got = weighted_makespan(e.list(), w, b);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t cut = 0; cut <= w.size(); ++cut) {
    const std::vector<std::size_t> cand{0, cut, w.size()};
    best = std::min(best, weighted_makespan(e.list(), w, cand));
  }
  EXPECT_LE(got, best * (1.0 + 1e-9));
}

TEST(WeightedContiguous, RejectsBadInput) {
  const auto e = fpm::test::constant_ensemble(2);
  EXPECT_THROW(
      partition_weighted_contiguous(e.list(), std::vector<double>{1.0, 0.0}),
      std::invalid_argument);
  EXPECT_THROW(partition_weighted_contiguous({}, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(WeightedMakespan, ComputesRangeTimes) {
  const auto e = fpm::test::constant_ensemble(2);  // speeds 100,150
  const std::vector<double> w{10.0, 20.0, 30.0, 60.0};
  const std::vector<std::size_t> b{0, 2, 4};
  // Ranges: [0,2): W=30, c=2 -> 30/100; [2,4): W=90, c=2 -> 90/150.
  EXPECT_DOUBLE_EQ(weighted_makespan(e.list(), w, b), 0.6);
}

}  // namespace
}  // namespace fpm::core
