// Targeted tests of the algorithm option knobs: iteration caps, stall
// windows, interpolation safeguards, and the granularity wrapper inside
// real partition calls — behaviours not covered by the main sweeps.
#include <gtest/gtest.h>

#include "core/fpm.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

TEST(Options, BasicIterationCapStillYieldsValidDistribution) {
  const auto e = fpm::test::power_ensemble(5);
  PartitionPolicy opts;
  opts.max_iterations = 3;  // far too few to converge
  const PartitionResult r = partition_basic(e.list(), 10'000'019, opts);
  EXPECT_EQ(r.distribution.total(), 10'000'019);
  EXPECT_LE(r.stats.iterations, 3);
  for (const std::int64_t c : r.distribution.counts) EXPECT_GE(c, 0);
  // With so few iterations the result may be worse than optimal but must
  // not be catastrophically so on benign curves (fine-tuning does the
  // heavy lifting from the bracket).
  const double t = makespan(e.list(), r.distribution);
  const double best = makespan(e.list(), exact_optimum(e.list(), 10'000'019));
  EXPECT_LE(t, best * 2.0);
}

TEST(Options, CombinedStallWindowForcesEarlySwitch) {
  // A stall window of 1 makes the combined algorithm switch on any family
  // (a single basic step cannot halve the candidate count reliably); the
  // result must stay near-optimal regardless.
  const auto e = fpm::test::stepped_ensemble(4);
  PartitionPolicy opts;
  opts.stall_window = 1;
  const PartitionResult r = partition_combined(e.list(), 5'000'011, opts);
  EXPECT_EQ(r.distribution.total(), 5'000'011);
  const double t = makespan(e.list(), r.distribution);
  const double best = makespan(e.list(), exact_optimum(e.list(), 5'000'011));
  EXPECT_LE(t, best * 1.001 + 1e-9);
}

TEST(Options, InterpolationSafeguardZeroStillConverges) {
  // Margin 0 lets the secant land on the bracket boundary; the step_custom
  // guard must keep the search sound.
  const auto e = fpm::test::linear_ensemble(4);
  PartitionPolicy opts;
  opts.safeguard_margin = 0.0;
  const PartitionResult r =
      partition_interpolation(e.list(), 1'000'003, opts);
  EXPECT_EQ(r.distribution.total(), 1'000'003);
  const double t = makespan(e.list(), r.distribution);
  const double best = makespan(e.list(), exact_optimum(e.list(), 1'000'003));
  EXPECT_LE(t, best * 1.001 + 1e-9);
}

TEST(Options, InterpolationHugeSafeguardDegradesToBisection) {
  // Margin 0.5 rejects every secant step: pure log-space bisection. Still
  // correct, just more iterations than the default.
  const auto e = fpm::test::power_ensemble(4);
  PartitionPolicy tight;
  tight.safeguard_margin = 0.5;
  const PartitionResult r = partition_interpolation(e.list(), 777'777, tight);
  EXPECT_EQ(r.distribution.total(), 777'777);
}

TEST(Options, ModifiedIterationCapRespected) {
  const auto e = fpm::test::unimodal_ensemble(4);
  PartitionPolicy opts;
  opts.max_iterations = 2;
  const PartitionResult r = partition_modified(e.list(), 999'983, opts);
  EXPECT_LE(r.stats.iterations, 2);
  EXPECT_EQ(r.distribution.total(), 999'983);
}

TEST(Options, RowGranularityInsidePartitioners) {
  // Partition 10 rows of 1e6 elements each over two machines whose curves
  // differ only beyond 4e6 elements: the row wrapper must place the split
  // where the element curves say, not at the naive midpoint.
  const PiecewiseLinearSpeed fast(
      {{1e5, 100.0}, {4e6, 100.0 * 0.99}, {2e7, 90.0}});
  const PiecewiseLinearSpeed cliff(
      {{1e5, 100.0}, {4e6, 100.0 * 0.98}, {6e6, 10.0}, {2e7, 5.0}});
  const GranularSpeedView fast_rows(fast, 1e6);
  const GranularSpeedView cliff_rows(cliff, 1e6);
  const SpeedList rows{&fast_rows, &cliff_rows};
  const PartitionResult r = partition_combined(rows, 10);
  EXPECT_EQ(r.distribution.total(), 10);
  // The cliff machine pages past 4-6 rows; it must get fewer than half.
  EXPECT_LT(r.distribution.counts[1], 5);
}

}  // namespace
}  // namespace fpm::core
