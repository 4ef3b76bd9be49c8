// Adversarial and degenerate configurations across the stack: identical
// processors (massive ties), near-duplicate breakpoints, extreme
// heterogeneity ratios, huge processor counts, single-element problems,
// and hostile simulator specs. Everything must stay well-defined — no
// crashes, invariants intact.
#include <gtest/gtest.h>

#include <memory>

#include "core/fpm.hpp"
#include "simcluster/machine.hpp"
#include "util/rng.hpp"

namespace fpm::core {
namespace {

TEST(EdgeCases, ManyIdenticalProcessorsSplitEvenly) {
  // 64 identical curves: ties everywhere; result must be the even split's
  // makespan (counts may permute).
  std::vector<std::shared_ptr<const SpeedFunction>> owned;
  for (int i = 0; i < 64; ++i)
    owned.push_back(std::make_shared<PowerDecaySpeed>(100.0, 1e6, 1.0, 1e9));
  const SpeedList speeds = make_speed_list(owned);
  const std::int64_t n = 64 * 1000 + 17;
  const PartitionResult r = partition_combined(speeds, n);
  EXPECT_EQ(r.distribution.total(), n);
  for (const std::int64_t c : r.distribution.counts) {
    EXPECT_GE(c, 1000);
    EXPECT_LE(c, 1001);
  }
}

TEST(EdgeCases, ExtremeHeterogeneityRatio) {
  // 1e6x speed ratio: the slow processor should receive (almost) nothing,
  // and the result must still be near-optimal.
  const ConstantSpeed fast(1e6, 1e12);
  const ConstantSpeed slow(1.0, 1e12);
  const SpeedList speeds{&fast, &slow};
  const std::int64_t n = 10'000'019;
  const PartitionResult r = partition_combined(speeds, n);
  EXPECT_EQ(r.distribution.total(), n);
  const Distribution best = exact_optimum(speeds, n);
  EXPECT_NEAR(makespan(speeds, r.distribution), makespan(speeds, best),
              1e-6 * makespan(speeds, best));
  EXPECT_LT(r.distribution.counts[1], 100);
}

TEST(EdgeCases, SingleElementManyProcessors) {
  const auto curves = [] {
    std::vector<std::shared_ptr<const SpeedFunction>> owned;
    for (int i = 0; i < 32; ++i)
      owned.push_back(std::make_shared<ConstantSpeed>(10.0 + i, 1e9));
    return owned;
  }();
  const SpeedList speeds = make_speed_list(curves);
  const PartitionResult r = partition_basic(speeds, 1);
  EXPECT_EQ(r.distribution.total(), 1);
  // The single element should land on the fastest processor.
  EXPECT_EQ(r.distribution.counts.back(), 1);
}

TEST(EdgeCases, NearDuplicateBreakpoints) {
  // Two breakpoints separated by 1 ulp-ish distance must not break
  // interpolation or intersection.
  const PiecewiseLinearSpeed f(
      {{1000.0, 100.0}, {1000.0000001, 99.9999}, {1e6, 10.0}});
  EXPECT_GT(f.speed(1000.00000005), 99.0);
  const double x = f.intersect(0.01);
  EXPECT_NEAR(0.01 * x, f.speed(x), 1e-6 * f.speed(x));
}

TEST(EdgeCases, VerySteepCliffCurve) {
  // A near-vertical paging cliff: speed collapses by 1000x across one part
  // in 1e6 of the range.
  std::vector<SteppedSpeed::Step> steps;
  steps.push_back({1e6, 0.1, 1.0});
  const SteppedSpeed f(100.0, std::move(steps), 1e8);
  const SpeedList speeds{&f, &f, &f};
  const PartitionResult r = partition_combined(speeds, 3'000'000);
  EXPECT_EQ(r.distribution.total(), 3'000'000);
  const Distribution best = exact_optimum(speeds, 3'000'000);
  EXPECT_LE(makespan(speeds, r.distribution),
            makespan(speeds, best) * 1.001);
}

TEST(EdgeCases, HugeProcessorCountSmallProblem) {
  std::vector<std::shared_ptr<const SpeedFunction>> owned;
  util::Rng rng(4);
  for (int i = 0; i < 500; ++i)
    owned.push_back(
        std::make_shared<ConstantSpeed>(rng.uniform(1.0, 100.0), 1e9));
  const SpeedList speeds = make_speed_list(owned);
  const PartitionResult r = partition_modified(speeds, 100);
  EXPECT_EQ(r.distribution.total(), 100);
  for (const std::int64_t c : r.distribution.counts) EXPECT_GE(c, 0);
}

TEST(EdgeCases, BoundsAllZeroExceptOne) {
  const auto curves = [] {
    std::vector<std::shared_ptr<const SpeedFunction>> owned;
    for (int i = 0; i < 4; ++i)
      owned.push_back(std::make_shared<ConstantSpeed>(50.0, 1e9));
    return owned;
  }();
  const SpeedList speeds = make_speed_list(curves);
  const std::vector<std::int64_t> bounds{0, 0, 1000, 0};
  const PartitionResult r =
      partition_bounded(speeds, 1000, {.bounds = bounds});
  EXPECT_EQ(r.distribution.counts[2], 1000);
  EXPECT_EQ(r.distribution.counts[0], 0);
}

TEST(EdgeCases, BuilderOnFlatZeroishTail) {
  // A source that is effectively zero over most of the range: the builder
  // must terminate and produce a usable (floored) model.
  struct Source final : MeasurementSource {
    double measure(double size) override {
      return size < 1000.0 ? 100.0 : 1e-6;
    }
  } src;
  BuilderOptions opts;
  opts.min_size = 10.0;
  opts.max_size = 1e6;
  const BuiltModel m = build_speed_band(src, opts);
  EXPECT_GT(m.probes, 0);
  const PiecewiseLinearSpeed curve = m.band.center();
  EXPECT_TRUE(satisfies_shape_requirement(curve));
}

TEST(EdgeCases, GranularityCoarserThanProblem) {
  // Items of 1e6 elements each, but only 3 items to distribute.
  const PowerDecaySpeed base(100.0, 1e7, 1.0, 1e9);
  const GranularSpeedView items(base, 1e6);
  const SpeedList speeds{&items, &items};
  const PartitionResult r = partition_combined(speeds, 3);
  EXPECT_EQ(r.distribution.total(), 3);
}

}  // namespace
}  // namespace fpm::core

namespace fpm::sim {
namespace {

TEST(EdgeCases, HostileMachineSpecs) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Efficient;
  // Tiny memory relative to cache: onset below cache capacity must throw.
  MachineSpec tiny{"tiny", "Linux", "x", 100.0, 64, 32, 1024};
  EXPECT_THROW((void)MachineSpeed(tiny, app), std::invalid_argument);
  // Giant cache, modest memory, still valid when onset > cache.
  MachineSpec wide{"wide", "Windows XP", "x", 5000.0, 1 << 20, 1 << 19, 64};
  const MachineSpeed f(wide, app);
  EXPECT_TRUE(core::satisfies_shape_requirement(f));
}

}  // namespace
}  // namespace fpm::sim
