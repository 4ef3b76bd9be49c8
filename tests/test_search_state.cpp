// Unit tests for the internal bracketing-search layer shared by the
// partitioning algorithms (core/detail/search_state): bracket invariants,
// the secant start, interior-candidate counting, convergence detection,
// the semantics of one basic and one modified step, and the oracle that
// every algorithm answers alike from either bracket start on every
// backend.
#include <gtest/gtest.h>

#include <numeric>

#include "core/detail/search_state.hpp"
#include "core/fleetgen.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm::core::detail {
namespace {

TEST(SearchState, InitialBracketStraddlesN) {
  const auto e = fpm::test::power_ensemble(4);
  const std::int64_t n = 1000000;
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, n);
  double small_sum = 0.0, large_sum = 0.0;
  for (const double x : state.small()) small_sum += x;
  for (const double x : state.large()) large_sum += x;
  EXPECT_LE(small_sum, static_cast<double>(n) * (1.0 + 1e-12));
  EXPECT_GE(large_sum, static_cast<double>(n) * (1.0 - 1e-12));
  EXPECT_LE(state.lo_slope(), state.hi_slope());
  EXPECT_EQ(state.intersections(), 8);  // two lines, four curves
  EXPECT_EQ(state.iterations(), 0);
}

TEST(SearchState, SecantStartNarrowsInsideFigure18) {
  // The secant start only ever narrows Figure 18's bracket: it still
  // straddles n, charges the paper-facing counters nothing beyond the two
  // bracket lines, and pays its probes in line solves.
  for (const auto& e : fpm::test::all_ensembles(6)) {
    for (const std::int64_t n : {std::int64_t{1'000}, std::int64_t{999'983},
                                 std::int64_t{100'000'007}}) {
      const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
      const SearchState figure18(compiled, n);
      const SearchState secant(compiled, n, nullptr, nullptr,
                               Bracket::Secant);
      const auto sum = [](const std::vector<double>& xs) {
        return std::accumulate(xs.begin(), xs.end(), 0.0);
      };
      EXPECT_GE(secant.lo_slope(), figure18.lo_slope()) << e.name << n;
      EXPECT_LE(secant.hi_slope(), figure18.hi_slope()) << e.name << n;
      EXPECT_LT(secant.lo_slope(), secant.hi_slope()) << e.name << n;
      EXPECT_LE(sum(secant.small()), static_cast<double>(n)) << e.name << n;
      EXPECT_GE(sum(secant.large()), static_cast<double>(n)) << e.name << n;
      EXPECT_LE(secant.total_interior(), figure18.total_interior())
          << e.name << n;
      EXPECT_EQ(secant.iterations(), 0);
      EXPECT_EQ(secant.intersections(), figure18.intersections());
      EXPECT_GE(secant.intersect_solves(), figure18.intersect_solves());
      EXPECT_EQ(secant.warm_probes(), 0);
    }
  }
}

TEST(SearchState, InteriorCountsMatchBrackets) {
  const auto e = fpm::test::linear_ensemble(3);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, 100000);
  for (std::size_t i = 0; i < 3; ++i) {
    const double lo = state.small()[i];
    const double hi = state.large()[i];
    // Count integers k with lo < k <= hi by brute force.
    std::int64_t expected = 0;
    for (std::int64_t k = static_cast<std::int64_t>(lo);
         k <= static_cast<std::int64_t>(hi) + 1; ++k)
      if (static_cast<double>(k) > lo && static_cast<double>(k) <= hi)
        ++expected;
    EXPECT_EQ(state.interior_count(i), expected) << i;
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < 3; ++i) total += state.interior_count(i);
  EXPECT_EQ(state.total_interior(), total);
}

TEST(SearchState, StepsShrinkTheBracket) {
  const auto e = fpm::test::unimodal_ensemble(4);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, 500000);
  const double width0 = state.hi_slope() - state.lo_slope();
  state.step_basic(true);
  const double width1 = state.hi_slope() - state.lo_slope();
  EXPECT_LT(width1, width0);
  EXPECT_EQ(state.iterations(), 1);
  state.step_modified();
  const double width2 = state.hi_slope() - state.lo_slope();
  EXPECT_LE(width2, width1);
  EXPECT_EQ(state.iterations(), 2);
}

TEST(SearchState, StepPreservesBracketInvariant) {
  const auto e = fpm::test::stepped_ensemble(5);
  const std::int64_t n = 3000000;
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, n);
  for (int it = 0; it < 30 && !state.converged(); ++it) {
    if (it % 2 == 0)
      state.step_basic(false);
    else
      state.step_modified();
    double small_sum = 0.0, large_sum = 0.0;
    for (const double x : state.small()) small_sum += x;
    for (const double x : state.large()) large_sum += x;
    ASSERT_LE(small_sum, static_cast<double>(n) * (1.0 + 1e-9)) << it;
    ASSERT_GE(large_sum, static_cast<double>(n) * (1.0 - 1e-9)) << it;
    ASSERT_LE(state.lo_slope(), state.hi_slope()) << it;
  }
}

TEST(SearchState, ConvergedMeansNoInteriorIntegers) {
  const auto e = fpm::test::power_ensemble(3);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, 250000);
  int guard = 0;
  while (!state.converged() && ++guard < 10000) state.step_basic(true);
  ASSERT_TRUE(state.converged());
  for (std::size_t i = 0; i < 3; ++i) {
    // No integer strictly inside (small[i], large[i]).
    const double lo = state.small()[i];
    const double hi = state.large()[i];
    for (std::int64_t k = static_cast<std::int64_t>(lo);
         k <= static_cast<std::int64_t>(hi) + 1; ++k)
      EXPECT_FALSE(static_cast<double>(k) > lo && static_cast<double>(k) < hi)
          << "integer " << k << " inside bracket of " << i;
  }
}

TEST(SearchState, ModifiedStepHalvesTheChosenGraphsCandidates) {
  const auto e = fpm::test::linear_ensemble(2);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, 777777);
  // Find the graph with the most candidates, take one modified step, and
  // verify its candidate count dropped to about half.
  std::size_t target = state.interior_count(0) >= state.interior_count(1) ? 0 : 1;
  const std::int64_t before = state.interior_count(target);
  state.step_modified();
  const std::int64_t after = state.interior_count(target);
  EXPECT_LE(after, before / 2 + 1);
  EXPECT_GE(after, before / 4);  // the split is near the midpoint, not wild
}

TEST(SearchState, SingleProcessorConvergesImmediatelyOrFast) {
  const auto e = fpm::test::constant_ensemble(1);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(e.list());
  SearchState state(compiled, 12345);
  int guard = 0;
  while (!state.converged() && ++guard < 100) state.step_basic(true);
  EXPECT_TRUE(state.converged());
  // The single bracket must pin x near n.
  EXPECT_NEAR(state.small()[0], 12345.0, 1.0);
}

TEST(BracketStart, Figure18LinesOnlyWhereTheMeanLineCannotOpen) {
  // A cold secant start on a wide Figure-18 window (the synthetic fleets
  // span two decades of speed) opens at the mean-speed line and solves
  // neither Figure-18 line. Narrow windows (at most 16x, the homogeneous
  // ensembles) and the exponential family's flat total-size curve solve
  // the pair, and partition() rolls the count into its obs counter.
  obs::Counter& counter =
      obs::metrics().counter(obs::names::kPartitionBracketFigure18Lines);
  for (const std::size_t p : {std::size_t{64}, std::size_t{4096}}) {
    for (std::uint64_t s = 1; s <= 8; ++s) {
      const SyntheticFleet fleet = make_synthetic_fleet(p, s);
      const std::int64_t before = counter.value();
      const PartitionResult r = partition(fleet.list(), 1'000'000'000);
      EXPECT_EQ(r.stats.figure18_lines, 0) << "p=" << p << " s=" << s;
      EXPECT_EQ(counter.value(), before) << "p=" << p << " s=" << s;
    }
  }
  constexpr std::int64_t kN = 100'000'000;
  int total = 0;
  for (const fpm::test::Ensemble& e : fpm::test::all_ensembles(6)) {
    const SlopeBracket window = detect_bracket(e.list(), kN);
    const PartitionResult r = partition(e.list(), kN);
    total += r.stats.figure18_lines;
    if (window.hi_slope <= 16.0 * window.lo_slope) {
      EXPECT_GE(r.stats.figure18_lines, 2) << e.name;
    }
  }
  EXPECT_GT(total, 0);
  const fpm::test::Ensemble flat = fpm::test::exponential_ensemble(4);
  const std::int64_t before = counter.value();
  const PartitionResult r = partition(flat.list(), kN);
  EXPECT_GT(r.stats.figure18_lines, 0);
  EXPECT_EQ(counter.value() - before, r.stats.figure18_lines);
}

TEST(BracketStart, DistributionsBitIdenticalAcrossAlgorithmsAndStarts) {
  // The oracle for the bracket start: every registry algorithm, from the
  // Figure-18 and from the secant bracket, on the scalar sweeps and every
  // runnable vector backend, returns the distribution the scalar combined
  // search returns from Figure 18 — bounded (which answers a different
  // problem when its bounds bind) the one it returns itself from there.
  struct Case {
    std::string name;
    SpeedList list;
    std::int64_t n;
  };
  std::vector<SyntheticFleet> fleets;
  for (const std::size_t p : {std::size_t{64}, std::size_t{4096}})
    for (std::uint64_t s = 1; s <= 8; ++s)
      fleets.push_back(make_synthetic_fleet(p, s));
  const std::vector<fpm::test::Ensemble> ensembles =
      fpm::test::all_ensembles(6);
  std::vector<Case> cases;
  for (const SyntheticFleet& fleet : fleets)
    cases.push_back({"fleet p=" + std::to_string(fleet.owned.size()),
                     fleet.list(), 1'000'000'000});
  for (const fpm::test::Ensemble& e : ensembles)
    for (const std::int64_t n : {std::int64_t{1'000'003},
                                 std::int64_t{100'000'007}})
      cases.push_back({e.name, e.list(), n});

  const auto solve = [](const Case& c, const std::string& id,
                        Bracket start) {
    return partition_from(start, c.list, c.n, {.algorithm = id})
        .distribution.counts;
  };
  const auto capacity = [](const SpeedList& list) {
    double total = 0.0;
    for (const SpeedFunction* f : list) total += std::ceil(f->max_size());
    return total;
  };
  std::vector<std::vector<std::int64_t>> reference, bounded_reference;
  {
    const fpm::test::BackendScope scalar;
    for (const Case& c : cases) {
      reference.push_back(solve(c, kAlgorithmCombined, Bracket::Figure18));
      bounded_reference.push_back(
          static_cast<double>(c.n) <= capacity(c.list)
              ? solve(c, kAlgorithmBounded, Bracket::Figure18)
              : std::vector<std::int64_t>{});
    }
  }
  for (const std::string& backend : fpm::test::runnable_backends()) {
    const fpm::test::BackendScope scope(backend);
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const Case& c = cases[k];
      for (const std::string& id : partitioner_registry().ids()) {
        const bool bounded = id == kAlgorithmBounded;
        if (bounded && bounded_reference[k].empty()) continue;
        for (const Bracket start : {Bracket::Figure18, Bracket::Secant})
          EXPECT_EQ(solve(c, id, start),
                    bounded ? bounded_reference[k] : reference[k])
              << backend << " " << c.name << " n=" << c.n << " " << id
              << (start == Bracket::Secant ? " secant" : " figure18");
      }
    }
  }
}

}  // namespace
}  // namespace fpm::core::detail
