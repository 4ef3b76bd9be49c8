// Unit and property tests for the fine-tuning layer: the greedy completion,
// the from-zero greedy, and the exact-optimum oracle itself (cross-checked
// against brute force on small instances).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <queue>
#include <string>

#include "core/finetune.hpp"
#include "core/fleetgen.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

/// Brute-force optimal makespan over all allocations of n elements to p
/// processors (exponential; only for tiny instances).
double brute_force_makespan(const SpeedList& speeds, std::int64_t n) {
  const std::size_t p = speeds.size();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> counts(p, 0);
  std::function<void(std::size_t, std::int64_t)> rec = [&](std::size_t i,
                                                           std::int64_t left) {
    if (i + 1 == p) {
      counts[i] = left;
      Distribution d{counts};
      best = std::min(best, makespan(speeds, d));
      return;
    }
    for (std::int64_t c = 0; c <= left; ++c) {
      counts[i] = c;
      rec(i + 1, left - c);
    }
  };
  rec(0, n);
  return best;
}

TEST(ExactOptimum, MatchesBruteForceOnTinyInstances) {
  for (const auto& e : fpm::test::all_ensembles(3)) {
    const SpeedList speeds = e.list();
    for (const std::int64_t n : {1L, 2L, 5L, 9L, 14L}) {
      const Distribution d = exact_optimum(speeds, n);
      EXPECT_EQ(d.total(), n) << e.name;
      EXPECT_NEAR(makespan(speeds, d), brute_force_makespan(speeds, n),
                  1e-9 * std::max(1.0, makespan(speeds, d)))
          << e.name << " n=" << n;
    }
  }
}

TEST(ExactOptimum, HandlesZeroAndRejectsEmpty) {
  const auto e = fpm::test::linear_ensemble(3);
  EXPECT_EQ(exact_optimum(e.list(), 0).total(), 0);
  EXPECT_THROW(exact_optimum({}, 5), std::invalid_argument);
}

TEST(GreedyFromZero, MatchesExactOptimumMakespan) {
  for (const auto& e : fpm::test::all_ensembles(4)) {
    const SpeedList speeds = e.list();
    for (const std::int64_t n : {1L, 7L, 100L, 4096L}) {
      const Distribution g = greedy_from_zero(speeds, n);
      const Distribution x = exact_optimum(speeds, n);
      EXPECT_EQ(g.total(), n);
      EXPECT_NEAR(makespan(speeds, g), makespan(speeds, x),
                  1e-9 * std::max(1e-30, makespan(speeds, x)))
          << e.name << " n=" << n;
    }
  }
}

TEST(FineTune, CompletesFloorAllocationToExactSum) {
  const auto e = fpm::test::power_ensemble(4);
  const SpeedList speeds = e.list();
  // A deliberately crude fractional seed (the real callers pass the steep
  // bracket line's intersections).
  const std::vector<double> seed{100.25, 250.75, 324.5, 99.99};
  const std::int64_t n = 900;
  const Distribution d = fine_tune(speeds, n, seed);
  EXPECT_EQ(d.total(), n);
  for (std::size_t i = 0; i < seed.size(); ++i)
    EXPECT_GE(d.counts[i], static_cast<std::int64_t>(seed[i]) - 1);
}

TEST(FineTune, ShedsExcessWhenSeedOverfills) {
  const auto e = fpm::test::constant_ensemble(3);
  const std::vector<double> seed{50.0, 50.0, 50.0};
  const Distribution d = fine_tune(e.list(), 100, seed);
  EXPECT_EQ(d.total(), 100);
  for (const auto c : d.counts) EXPECT_GE(c, 0);
}

TEST(FineTune, NegativeSeedEntriesClampToZero) {
  const auto e = fpm::test::constant_ensemble(2);
  const std::vector<double> seed{-3.0, 0.5};
  const Distribution d = fine_tune(e.list(), 10, seed);
  EXPECT_EQ(d.total(), 10);
  for (const auto c : d.counts) EXPECT_GE(c, 0);
}

TEST(FineTune, RejectsSizeMismatch) {
  const auto e = fpm::test::constant_ensemble(2);
  EXPECT_THROW(fine_tune(e.list(), 10, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(FineTune, GreedyCompletionIsOptimalFromConsistentSeed) {
  // Property (DESIGN.md §5): starting from the floors of a line with sum
  // <= n, the greedy completion reaches the global optimal makespan.
  for (const auto& e : fpm::test::all_ensembles(5)) {
    const SpeedList speeds = e.list();
    const std::int64_t n = 100003;
    const SlopeBracket br = detect_bracket(speeds, n);
    const std::vector<double> small = sizes_at(speeds, br.hi_slope);
    const Distribution tuned = fine_tune(speeds, n, small);
    const Distribution best = exact_optimum(speeds, n);
    EXPECT_EQ(tuned.total(), n) << e.name;
    // Allow the one-element slack of integer granularity.
    double slack = 0.0;
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      const double x = static_cast<double>(best.counts[i]);
      slack = std::max(slack, speeds[i]->time(x + 1.0) - speeds[i]->time(x));
    }
    EXPECT_LE(makespan(speeds, tuned), makespan(speeds, best) + slack)
        << e.name;
  }
}

/// The award heap, the selection's oracle: the floor allocation of `small`
/// (which must not exceed n), seeded from one batched speed sweep, then one
/// pop per award.
std::vector<std::int64_t> heap_fine_tune(const CompiledSpeedList& speeds,
                                         std::int64_t n,
                                         const std::vector<double>& small) {
  std::vector<std::int64_t> counts(speeds.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    counts[i] = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::floor(small[i])));
    assigned += counts[i];
  }
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<double> sp(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    sp[i] = static_cast<double>(counts[i] + 1);
  speeds_at(speeds, sp, nullptr, sp);
  for (std::size_t i = 0; i < speeds.size(); ++i)
    heap.emplace(static_cast<double>(counts[i] + 1) / sp[i], i);
  for (std::int64_t deficit = n - assigned; deficit > 0; --deficit) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++counts[i];
    const double x = static_cast<double>(counts[i] + 1);
    heap.emplace(x / speeds.speed(i, x), i);
  }
  return counts;
}

TEST(FineTune, SelectionMatchesAwardHeap) {
  // The selection awards exactly what the heap pops, deficit by deficit,
  // with the scalar sweeps and every runnable vector backend.
  struct Case {
    std::string name;
    fpm::test::CurveSet owned;
    std::vector<double> small;
  };
  std::vector<Case> cases;
  {
    // Equal times at different indices: the index breaks every tie.
    Case c{"ties", {}, {}};
    for (int i = 0; i < 8; ++i) {
      c.owned.push_back(std::make_shared<ConstantSpeed>(100.0, 1e9));
      c.small.push_back(10.0 + 0.5 * (i % 2));
    }
    cases.push_back(std::move(c));
  }
  {
    // One processor a million times faster takes every award.
    Case c{"one-takes-all", {}, {}};
    for (int i = 0; i < 16; ++i) {
      c.owned.push_back(
          std::make_shared<ConstantSpeed>(i == 0 ? 1e6 : 1.0, 1e9));
      c.small.push_back(0.0);
    }
    cases.push_back(std::move(c));
  }
  {
    // SteppedSpeed plateaus with a sharp drop inside the awarded range.
    Case c{"stepped-plateau", {}, {}};
    for (int i = 0; i < 12; ++i) {
      const double s0 = 400.0 + 25.0 * i;
      c.owned.push_back(std::make_shared<SteppedSpeed>(
          s0, std::vector<SteppedSpeed::Step>{{1000.0 + i, s0 / 4.0, 0.5}},
          1e6));
      c.small.push_back(996.0 + 0.7 * i);
    }
    cases.push_back(std::move(c));
  }
  // The benchmark's fleet shapes, seeded from their searches' steep lines
  // and from lines a few elements short of them (longer award chains).
  FleetMix stepped_only;
  stepped_only.constant = stepped_only.linear_decay = 0.0;
  stepped_only.power_decay = stepped_only.exp_decay = 0.0;
  stepped_only.piecewise = 0.0;
  stepped_only.stepped = 1.0;
  for (const auto& [p, mix] :
       {std::pair{std::size_t{64}, FleetMix{}},
        std::pair{std::size_t{4096}, FleetMix{}},
        std::pair{std::size_t{256}, stepped_only}}) {
    SyntheticFleet fleet = make_synthetic_fleet(p, 7, mix);
    const SpeedList list = fleet.list();
    const double slope = partition(list, 1'000'000'000).stats.final_slope;
    const std::vector<double> line =
        sizes_at(CompiledSpeedList::compile(list), slope, nullptr);
    for (const double shift : {0.0, 2.5}) {
      Case c{"fleet p=" + std::to_string(p) + " shift " +
                 std::to_string(shift),
             fleet.owned, line};
      for (std::size_t i = 0; i < p; ++i)
        c.small[i] = std::max(
            0.0, c.small[i] - shift * static_cast<double>(i % 3));
      cases.push_back(std::move(c));
    }
  }

  for (const std::string& backend : fpm::test::runnable_backends()) {
    const fpm::test::BackendScope scope(backend);
    for (const Case& c : cases) {
      SpeedList list;
      for (const auto& f : c.owned) list.push_back(f.get());
      const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
      const auto p = static_cast<std::int64_t>(list.size());
      std::int64_t floors = 0;
      for (const double x : c.small)
        floors += static_cast<std::int64_t>(std::floor(x));
      for (const std::int64_t deficit :
           {std::int64_t{0}, std::int64_t{1}, p / 2, p - 1, p, p + 1,
            3 * p}) {
        const std::int64_t n = floors + deficit;
        EvalCounters counters;
        const Distribution d = fine_tune(compiled, n, c.small, &counters);
        EXPECT_EQ(d.counts, heap_fine_tune(compiled, n, c.small))
            << backend << " " << c.name << " deficit " << deficit;
        EXPECT_EQ(d.total(), n) << backend << " " << c.name;
        EXPECT_GE(counters.speed_evals, p + deficit)
            << backend << " " << c.name << " deficit " << deficit;
      }
    }
  }
}

TEST(ExactOptimum, NeverWorseThanProportionalHeuristics) {
  const auto e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::int64_t n = 250000;
  const double t_opt = makespan(speeds, exact_optimum(speeds, n));
  const double t_even = makespan(speeds, partition_even(n, speeds.size()));
  const Distribution prop = partition_single_number_at(speeds, n, 1000.0);
  EXPECT_LE(t_opt, makespan(speeds, prop) * (1.0 + 1e-12));
  EXPECT_LE(t_opt, t_even * (1.0 + 1e-12));
}

}  // namespace
}  // namespace fpm::core
