// Property-based fuzzing of the partitioning stack: random piece-wise-
// linear speed curves (valid by construction), random processor counts and
// problem sizes, checked against the exact-optimum oracle. Every seed is a
// distinct deterministic instance.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/fpm.hpp"
#include "util/rng.hpp"

namespace fpm::core {
namespace {

/// Random speed curve satisfying the shape requirement: random positive
/// speeds at geometrically spread sizes, passed through the monotone-ratio
/// repair (which preserves validity and only lowers offending speeds).
PiecewiseLinearSpeed random_curve(util::Rng& rng) {
  const int breakpoints = static_cast<int>(rng.uniform_int(1, 12));
  const double x0 = rng.uniform(10.0, 1e4);
  const double growth = rng.uniform(1.5, 8.0);
  const double s0 = rng.uniform(10.0, 500.0);
  std::vector<SpeedPoint> pts;
  double x = x0;
  double s = s0;
  for (int i = 0; i < breakpoints; ++i) {
    pts.push_back({x, s});
    x *= growth * rng.uniform(0.8, 1.25);
    // Speeds drift downward on average but may locally rise — the repair
    // keeps the ratio monotone either way.
    s = std::max(1e-3, s * rng.uniform(0.3, 1.15));
  }
  return PiecewiseLinearSpeed(repair_shape_requirement(std::move(pts)));
}

struct Instance {
  std::vector<std::shared_ptr<const PiecewiseLinearSpeed>> owned;
  SpeedList speeds;
  std::int64_t n = 0;
};

Instance random_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  Instance inst;
  const int p = static_cast<int>(rng.uniform_int(1, 16));
  for (int i = 0; i < p; ++i) {
    util::Rng child = rng.split();
    inst.owned.push_back(
        std::make_shared<PiecewiseLinearSpeed>(random_curve(child)));
  }
  for (const auto& c : inst.owned) inst.speeds.push_back(c.get());
  // Problem sizes from trivial to far beyond the modelled ranges.
  const double scale = std::pow(10.0, rng.uniform(0.0, 9.0));
  inst.n = std::max<std::int64_t>(1, static_cast<std::int64_t>(scale));
  return inst;
}

class FuzzPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPartition, AllAlgorithmsNearOptimal) {
  const Instance inst = random_instance(GetParam());
  const Distribution best = exact_optimum(inst.speeds, inst.n);
  const double t_best = makespan(inst.speeds, best);
  double slack = 0.0;
  for (std::size_t i = 0; i < inst.speeds.size(); ++i) {
    const double x = static_cast<double>(best.counts[i]);
    slack = std::max(slack,
                     inst.speeds[i]->time(x + 1.0) - inst.speeds[i]->time(x));
  }
  const PartitionPolicy interpolation{.algorithm = kAlgorithmInterpolation};
  for (const auto& [name, result] :
       {std::pair{"basic", partition_basic(inst.speeds, inst.n)},
        {"modified", partition_modified(inst.speeds, inst.n)},
        {"combined", partition_combined(inst.speeds, inst.n)},
        {"interpolation figure18",
         detail::partition_from(Bracket::Figure18, inst.speeds, inst.n,
                                interpolation)},
        {"interpolation secant",
         detail::partition_from(Bracket::Secant, inst.speeds, inst.n,
                                interpolation)}}) {
    EXPECT_EQ(result.distribution.total(), inst.n)
        << name << " seed=" << GetParam();
    for (const std::int64_t c : result.distribution.counts)
      ASSERT_GE(c, 0) << name << " seed=" << GetParam();
    const double t = makespan(inst.speeds, result.distribution);
    EXPECT_LE(t, t_best + slack + 1e-9 * t_best)
        << name << " seed=" << GetParam() << " p=" << inst.speeds.size()
        << " n=" << inst.n;
  }
}

TEST_P(FuzzPartition, IntersectionsSatisfyLineEquation) {
  const Instance inst = random_instance(GetParam());
  util::Rng rng(GetParam() ^ 0xabcdef);
  for (const SpeedFunction* f : inst.speeds) {
    for (int k = 0; k < 8; ++k) {
      const double x_ref = f->max_size() * rng.uniform(0.01, 1.0);
      const double c = f->ratio(x_ref);
      const double x = f->intersect(c);
      ASSERT_GT(x, 0.0);
      EXPECT_NEAR(c * x, f->speed(x), 1e-6 * std::max(1e-12, f->speed(x)))
          << " seed=" << GetParam();
    }
  }
}

TEST_P(FuzzPartition, BoundedRespectsRandomBounds) {
  const Instance inst = random_instance(GetParam());
  util::Rng rng(GetParam() * 7919 + 1);
  std::vector<std::int64_t> bounds(inst.speeds.size());
  std::int64_t capacity = 0;
  for (auto& b : bounds) {
    b = rng.uniform_int(0, inst.n);
    capacity += b;
  }
  if (capacity < inst.n) {
    bounds.back() += inst.n - capacity;  // ensure feasibility
  }
  const PartitionResult r =
      partition_bounded(inst.speeds, inst.n, {.bounds = bounds});
  EXPECT_EQ(r.distribution.total(), inst.n) << " seed=" << GetParam();
  for (std::size_t i = 0; i < bounds.size(); ++i)
    EXPECT_LE(r.distribution.counts[i], bounds[i])
        << i << " seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPartition,
                         ::testing::Range<std::uint64_t>(1, 41),
                         [](const auto& suffix) {
                           return "seed" + std::to_string(suffix.param);
                         });

}  // namespace
}  // namespace fpm::core
