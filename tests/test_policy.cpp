// The unified partitioner engine: registry contents, policy dispatch
// bit-identity against the direct entry points, the parse/format grammar,
// and the shared search instrumentation (per-call counters + step traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

using fpm::test::Ensemble;

std::vector<std::int64_t> capacity_bounds(const SpeedList& speeds) {
  std::vector<std::int64_t> bounds;
  for (const SpeedFunction* f : speeds)
    bounds.push_back(static_cast<std::int64_t>(std::ceil(f->max_size())));
  return bounds;
}

TEST(PartitionerRegistry, HoldsTheFiveFamilyMembers) {
  const std::vector<std::string> ids = partitioner_registry().ids();
  const std::vector<std::string> expected{
      kAlgorithmBasic, kAlgorithmModified, kAlgorithmCombined,
      kAlgorithmInterpolation, kAlgorithmBounded};
  EXPECT_EQ(ids, expected);
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    EXPECT_FALSE(info.summary.empty()) << info.id;
    EXPECT_FALSE(info.complexity.empty()) << info.id;
    EXPECT_EQ(info.needs_bounds, info.id == kAlgorithmBounded) << info.id;
    EXPECT_TRUE(partitioner_registry().contains(info.id));
  }
  EXPECT_FALSE(partitioner_registry().contains("simulated-annealing"));
  for (const std::string& id : ids)
    EXPECT_NE(partitioner_registry().joined_ids().find(id), std::string::npos);
}

TEST(Registry, EachAlgorithmRunsFromItsFixedStart) {
  // partition() opens each algorithm from its registry start: Figure 18
  // for the paper's basic and modified, the secant bracket for the rest.
  // The detail::partition_from seam from that start reproduces it count
  // for count, and from the other start really does search differently.
  const std::vector<std::pair<std::string, Bracket>> starts{
      {kAlgorithmBasic, Bracket::Figure18},
      {kAlgorithmModified, Bracket::Figure18},
      {kAlgorithmCombined, Bracket::Secant},
      {kAlgorithmInterpolation, Bracket::Secant},
      {kAlgorithmBounded, Bracket::Secant}};
  for (const auto& [id, start] : starts)
    EXPECT_EQ(partitioner_registry().at(id).start, start) << id;
  const SyntheticFleet fleet = make_synthetic_fleet(64, 1);
  std::vector<std::pair<std::string, SpeedList>> lists{
      {"fleet p=64", fleet.list()}};
  const std::vector<Ensemble> ensembles = fpm::test::all_ensembles(6);
  for (const Ensemble& e : ensembles) lists.emplace_back(e.name, e.list());
  int bounded_runs = 0;
  for (const auto& [name, speeds] : lists) {
    const std::int64_t n = 10'000'019;
    std::int64_t capacity = 0;
    for (const std::int64_t b : capacity_bounds(speeds)) capacity += b;
    for (const auto& [id, start] : starts) {
      if (id == kAlgorithmBounded && capacity < n) continue;
      bounded_runs += id == kAlgorithmBounded;
      const PartitionPolicy policy{.algorithm = id};
      const PartitionResult fixed = partition(speeds, n, policy);
      const PartitionResult seam = detail::partition_from(start, speeds, n,
                                                          policy);
      const std::string where = name + " " + id;
      EXPECT_EQ(fixed.distribution.counts, seam.distribution.counts) << where;
      EXPECT_EQ(fixed.stats.iterations, seam.stats.iterations) << where;
      EXPECT_EQ(fixed.stats.speed_evals, seam.stats.speed_evals) << where;
      EXPECT_EQ(fixed.stats.intersect_solves, seam.stats.intersect_solves)
          << where;
      if (id != kAlgorithmCombined) continue;
      const Bracket other = start == Bracket::Secant ? Bracket::Figure18
                                                     : Bracket::Secant;
      const PartitionResult moved = detail::partition_from(other, speeds, n,
                                                           policy);
      EXPECT_EQ(moved.distribution.counts, fixed.distribution.counts)
          << where;
      EXPECT_NE(moved.stats.intersect_solves, fixed.stats.intersect_solves)
          << where;
    }
  }
  EXPECT_GT(bounded_runs, 0);
}

/// Expects two results to agree in the distribution and every stats
/// field.
void expect_same_result(const PartitionResult& a, const PartitionResult& b,
                        const std::string& where) {
  EXPECT_EQ(a.distribution.counts, b.distribution.counts) << where;
  const PartitionStats& x = a.stats;
  const PartitionStats& y = b.stats;
  EXPECT_EQ(x.iterations, y.iterations) << where;
  EXPECT_EQ(x.intersections, y.intersections) << where;
  EXPECT_EQ(x.final_slope, y.final_slope) << where;
  EXPECT_EQ(x.algorithm, y.algorithm) << where;
  EXPECT_EQ(x.switched_to_modified, y.switched_to_modified) << where;
  EXPECT_EQ(x.speed_evals, y.speed_evals) << where;
  EXPECT_EQ(x.intersect_solves, y.intersect_solves) << where;
  EXPECT_EQ(x.warmstart, y.warmstart) << where;
  EXPECT_EQ(x.iterations_saved, y.iterations_saved) << where;
  EXPECT_EQ(x.warm_probes, y.warm_probes) << where;
  EXPECT_EQ(x.figure18_lines, y.figure18_lines) << where;
  EXPECT_EQ(x.search_speed_evals, y.search_speed_evals) << where;
  EXPECT_EQ(x.search_intersect_solves, y.search_intersect_solves) << where;
  EXPECT_EQ(x.bracket_saturations, y.bracket_saturations) << where;
}

TEST(Registry, CompiledAndListEntryPointsAgree) {
  // partition(const CompiledSpeedList&) is the engine and
  // partition(const SpeedList&) compiles, then runs it: the two answer
  // alike for every algorithm, from a cold start, a hint and a stale
  // hint, on every backend. Bounded runs once on the curves' capacities
  // and once on bounds that clamp.
  const SyntheticFleet fleet = make_synthetic_fleet(64, 5);
  std::vector<std::pair<std::string, SpeedList>> lists{
      {"fleet p=64", fleet.list()}};
  const std::vector<Ensemble> ensembles = fpm::test::all_ensembles(6);
  for (const Ensemble& e : ensembles) lists.emplace_back(e.name, e.list());
  constexpr std::int64_t kN = 10'000'019;
  int clamped_runs = 0, hits = 0, stale = 0;
  for (const std::string& backend : fpm::test::runnable_backends()) {
    const fpm::test::BackendScope scope(backend);
    for (const auto& [name, speeds] : lists) {
      const CompiledSpeedList compiled = CompiledSpeedList::compile(speeds);
      const PartitionResult cold = partition(compiled, kN);
      std::vector<PartitionPolicy> policies;
      for (const std::string& id : partitioner_registry().ids()) {
        PartitionPolicy policy{.algorithm = id};
        if (id == kAlgorithmBounded) {
          std::int64_t capacity = 0;
          for (const std::int64_t b : capacity_bounds(speeds)) capacity += b;
          if (capacity >= kN) policies.push_back(policy);
          // Every other processor bound one element below its unbounded
          // share, the rest free to take all of n.
          for (std::size_t i = 0; i < speeds.size(); ++i)
            policy.bounds.push_back(
                i % 2 == 0 ? std::max<std::int64_t>(
                                 cold.distribution.counts[i] - 1, 0)
                           : kN);
          ++clamped_runs;
        }
        policies.push_back(policy);
      }
      const PartitionHint hint{.slope = cold.stats.final_slope,
                               .n = kN - kN / 64,
                               .fingerprint = compiled.fingerprint()};
      PartitionHint mismatched = hint;
      mismatched.fingerprint ^= 1;
      PartitionHint far = hint;
      far.slope *= 1e6;
      for (PartitionPolicy& policy : policies) {
        for (const std::optional<PartitionHint>& start :
             {std::optional<PartitionHint>{}, std::optional{hint},
              std::optional{mismatched}, std::optional{far}}) {
          policy.hint = start;
          const std::string where =
              backend + " " + name + " " + format_policy(policy) +
              (policy.bounds.empty() ? "" : " (clamped)") + " hint " +
              (start ? std::to_string(start->slope) + "/" +
                           std::to_string(start->fingerprint)
                     : "none");
          const PartitionResult engine = partition(compiled, kN, policy);
          expect_same_result(engine, partition(speeds, kN, policy), where);
          hits += engine.stats.warmstart == WarmStart::Hit;
          stale += engine.stats.warmstart == WarmStart::Stale;
        }
      }
    }
  }
  EXPECT_GT(clamped_runs, 0);
  EXPECT_GT(hits, 0);
  EXPECT_GT(stale, 0);
}

TEST(PartitionEngine, DefaultPolicyIsExactlyCombined) {
  for (const Ensemble& e : fpm::test::all_ensembles(6)) {
    const SpeedList speeds = e.list();
    const PartitionResult direct = partition_combined(speeds, 1'000'000);
    const PartitionResult engine = partition(speeds, 1'000'000);
    EXPECT_EQ(engine.distribution.counts, direct.distribution.counts)
        << e.name;
    EXPECT_EQ(engine.stats.iterations, direct.stats.iterations) << e.name;
    EXPECT_EQ(engine.stats.intersections, direct.stats.intersections)
        << e.name;
    EXPECT_EQ(engine.stats.algorithm, kAlgorithmCombined) << e.name;
  }
}

TEST(PartitionEngine, EveryIdMatchesItsDirectEntryPoint) {
  const Ensemble e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::int64_t n = 31'415'926;
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    PartitionPolicy policy;
    policy.algorithm = info.id;
    const PartitionResult engine = partition(speeds, n, policy);
    PartitionResult direct;
    if (info.id == kAlgorithmBasic)
      direct = partition_basic(speeds, n);
    else if (info.id == kAlgorithmModified)
      direct = partition_modified(speeds, n);
    else if (info.id == kAlgorithmCombined)
      direct = partition_combined(speeds, n);
    else if (info.id == kAlgorithmInterpolation)
      direct = partition_interpolation(speeds, n);
    else
      direct =
          partition_bounded(speeds, n, {.bounds = capacity_bounds(speeds)});
    EXPECT_EQ(engine.distribution.counts, direct.distribution.counts)
        << info.id;
    EXPECT_EQ(engine.stats.iterations, direct.stats.iterations) << info.id;
    EXPECT_EQ(engine.stats.algorithm, info.id) << info.id;
  }
}

TEST(PartitionEngine, OptionsVariantIsHonoured) {
  const Ensemble e = fpm::test::power_ensemble(5);
  PartitionPolicy tuned;
  tuned.stall_window = 2;
  const PartitionResult engine = partition(e.list(), 10'000'019, tuned);
  const PartitionResult direct = partition_combined(e.list(), 10'000'019,
                                                    tuned);
  EXPECT_EQ(engine.distribution.counts, direct.distribution.counts);
  EXPECT_EQ(engine.stats.iterations, direct.stats.iterations);
}

TEST(PartitionEngine, UnknownIdNamesTheValidOnes) {
  const Ensemble e = fpm::test::power_ensemble(3);
  PartitionPolicy policy;
  policy.algorithm = "annealing";
  try {
    partition(e.list(), 1000, policy);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("annealing"), std::string::npos);
    for (const std::string& id : partitioner_registry().ids())
      EXPECT_NE(what.find(id), std::string::npos) << what;
  }
}

TEST(PartitionEngine, BoundedDerivesBoundsFromCurveCapacity) {
  // Exponential curves have max_size 2e6 each: 6 of them hold 1.2e7.
  const Ensemble e = fpm::test::exponential_ensemble(6);
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmBounded;
  const std::int64_t feasible = 6'000'000;
  const PartitionResult engine = partition(e.list(), feasible, policy);
  const PartitionResult direct = partition_bounded(
      e.list(), feasible, {.bounds = capacity_bounds(e.list())});
  EXPECT_EQ(engine.distribution.counts, direct.distribution.counts);
  for (std::size_t i = 0; i < e.owned.size(); ++i)
    EXPECT_LE(engine.distribution.counts[i],
              static_cast<std::int64_t>(std::ceil(e.list()[i]->max_size())));
  // More than the curves can hold is infeasible, like the direct call.
  EXPECT_THROW(partition(e.list(), 13'000'000, policy), std::invalid_argument);
  // Explicit bounds override the derived ones.
  policy.bounds.assign(6, 2'000'000);
  policy.bounds[0] = 0;
  const PartitionResult clamped = partition(e.list(), feasible, policy);
  EXPECT_EQ(clamped.distribution.counts[0], 0);
  EXPECT_EQ(clamped.distribution.total(), feasible);
}

// ---------------------------------------------------------------------------
// Shared instrumentation: counters and the step trace.
// ---------------------------------------------------------------------------

TEST(SearchInstrumentation, CountersAreAliveForEveryAlgorithm) {
  const Ensemble e = fpm::test::mixed_ensemble();
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    PartitionPolicy policy;
    policy.algorithm = info.id;
    const PartitionResult r = partition(e.list(), 31'415'926, policy);
    EXPECT_GT(r.stats.speed_evals, 0) << info.id;
    EXPECT_GT(r.stats.intersect_solves, 0) << info.id;
  }
}

TEST(SearchInstrumentation, TraceStepCountMatchesIterationStats) {
  const Ensemble e = fpm::test::mixed_ensemble();
  for (const PartitionerInfo& info : partitioner_registry().entries()) {
    StepTrace trace;
    PartitionPolicy policy;
    policy.algorithm = info.id;
    policy.observer = trace.observer();
    const PartitionResult r = partition(e.list(), 31'415'926, policy);
    EXPECT_EQ(trace.search_steps(), r.stats.iterations) << info.id;
    EXPECT_GE(trace.brackets(), 1) << info.id;
    EXPECT_FALSE(trace.truncated()) << info.id;
    // Iterations are numbered 1..k within each line search; the bracket
    // record of each search carries iteration 0.
    int last = -1;
    for (const SearchStep& s : trace.steps()) {
      if (s.kind == SearchStepKind::Bracket) {
        EXPECT_EQ(s.iteration, 0) << info.id;
        last = 0;
      } else {
        EXPECT_EQ(s.iteration, last + 1) << info.id;
        last = s.iteration;
        EXPECT_LE(s.lo_slope, s.hi_slope) << info.id;
      }
    }
  }
}

TEST(SearchInstrumentation, ObserverDoesNotChangeTheDistribution) {
  for (const Ensemble& e : fpm::test::all_ensembles(5)) {
    StepTrace trace;
    PartitionPolicy observed;
    observed.observer = trace.observer();
    const PartitionResult with = partition(e.list(), 2'000'003, observed);
    const PartitionResult without = partition(e.list(), 2'000'003);
    EXPECT_EQ(with.distribution.counts, without.distribution.counts) << e.name;
    EXPECT_EQ(with.stats.iterations, without.stats.iterations) << e.name;
    EXPECT_EQ(with.stats.speed_evals, without.stats.speed_evals) << e.name;
    EXPECT_EQ(with.stats.intersect_solves, without.stats.intersect_solves)
        << e.name;
  }
}

TEST(SearchInstrumentation, TraceTruncatesButKeepsCounting) {
  const Ensemble e = fpm::test::exponential_ensemble(6);
  StepTrace trace(3);
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmBasic;
  policy.observer = trace.observer();
  const PartitionResult r = partition(e.list(), 1'000'000, policy);
  ASSERT_GT(r.stats.iterations, 3);
  EXPECT_TRUE(trace.truncated());
  EXPECT_EQ(trace.steps().size(), 3u);
  EXPECT_EQ(trace.search_steps(), r.stats.iterations);
}

// ---------------------------------------------------------------------------
// The policy grammar shared by spec files and CLIs.
// ---------------------------------------------------------------------------

TEST(PolicyGrammar, ParsesKeysIntoTheMatchingOptions) {
  const std::vector<std::string> tokens{"stall_window", "7", "bisect_angles",
                                        "false"};
  const PartitionPolicy policy = parse_policy(kAlgorithmCombined, tokens);
  EXPECT_EQ(policy.stall_window, 7);
  EXPECT_FALSE(policy.bisect_angles);
}

TEST(PolicyGrammar, FormatRoundTrips) {
  const std::vector<std::string> tokens{"stall_window", "7", "bisect_angles",
                                        "false"};
  const PartitionPolicy policy = parse_policy(kAlgorithmCombined, tokens);
  const std::string text = format_policy(policy);
  EXPECT_EQ(text, "combined stall_window 7 bisect_angles false");
  // Defaults collapse to the bare id.
  EXPECT_EQ(format_policy(parse_policy(kAlgorithmModified, {})), "modified");
  EXPECT_EQ(format_policy(PartitionPolicy{}), "combined");
  // Doubles round-trip exactly, not at the stream default of 6 digits;
  // values with at most 6 significant digits keep their short form.
  const std::vector<std::string> fine{"safeguard_margin", "0.0123456789"};
  const PartitionPolicy precise = parse_policy(kAlgorithmInterpolation, fine);
  EXPECT_EQ(format_policy(precise),
            "interpolation safeguard_margin 0.0123456789");
  for (const double margin : {0.0123456789, 1.0 / 3.0, 0.1 + 0.2, 1e-300}) {
    PartitionPolicy exact;
    exact.algorithm = kAlgorithmInterpolation;
    exact.safeguard_margin = margin;
    const std::string printed = format_policy(exact);
    const std::vector<std::string> back{
        "safeguard_margin", printed.substr(printed.rfind(' ') + 1)};
    EXPECT_EQ(parse_policy(kAlgorithmInterpolation, back).safeguard_margin,
              margin)
        << printed;
  }
  const std::vector<std::string> close{"safeguard_margin", "0.01234568"};
  EXPECT_EQ(format_policy(parse_policy(kAlgorithmInterpolation, close)),
            "interpolation safeguard_margin 0.01234568");
  const std::vector<std::string> short_form{"safeguard_margin", "0.0001"};
  EXPECT_EQ(format_policy(parse_policy(kAlgorithmInterpolation, short_form)),
            "interpolation safeguard_margin 0.0001");
}

TEST(PolicyGrammar, DefaultIterationCapFormatsAsTheBareId) {
  // Each algorithm's documented default cap is the value an unset
  // max_iterations stands for, so spelling it out changes nothing.
  const std::vector<std::pair<std::string, int>> caps{
      {kAlgorithmBasic, 1 << 20},
      {kAlgorithmModified, 1 << 22},
      {kAlgorithmCombined, 1 << 22},
      {kAlgorithmInterpolation, 1 << 20},
      {kAlgorithmBounded, 1 << 22}};
  for (const auto& [id, cap] : caps) {
    const std::vector<std::string> tokens{"max_iterations",
                                          std::to_string(cap)};
    EXPECT_EQ(format_policy(parse_policy(id, tokens)), id);
    const std::vector<std::string> other{"max_iterations",
                                         std::to_string(cap - 1)};
    EXPECT_EQ(format_policy(parse_policy(id, other)),
              id + " max_iterations " + std::to_string(cap - 1));
  }
}

TEST(PolicyGrammar, CacheKeysKeepEveryDigit) {
  // Two margins that agree to 6 significant digits are different
  // policies and must not share a server cache entry.
  const std::vector<std::string> a{"safeguard_margin", "0.0123456789"};
  const std::vector<std::string> b{"safeguard_margin", "0.01234568"};
  EXPECT_NE(
      PartitionCache::make_key(42, 1000,
                               parse_policy(kAlgorithmInterpolation, a)),
      PartitionCache::make_key(42, 1000,
                               parse_policy(kAlgorithmInterpolation, b)));
}

TEST(PolicyGrammar, RejectsMalformedInput) {
  EXPECT_THROW(parse_policy("annealing", {}), std::invalid_argument);
  const std::vector<std::string> dangling{"stall_window"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, dangling),
               std::invalid_argument);
  const std::vector<std::string> unknown{"cooling_rate", "3"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, unknown),
               std::invalid_argument);
  const std::vector<std::string> bad_value{"stall_window", "many"};
  EXPECT_THROW(parse_policy(kAlgorithmCombined, bad_value),
               std::invalid_argument);
  const std::vector<std::string> trailing_junk{"max_iterations", "3x"};
  EXPECT_THROW(parse_policy(kAlgorithmModified, trailing_junk),
               std::invalid_argument);
  // The cold start is fixed per algorithm; no id takes a bracket key.
  for (const std::string& id : partitioner_registry().ids()) {
    const std::vector<std::string> tokens{"bracket", "figure18"};
    try {
      parse_policy(id, tokens);
      ADD_FAILURE() << id << " accepted the bracket key";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find("has no key 'bracket'"),
                std::string::npos)
          << err.what();
    }
  }
  // Out-of-range tuning values fail naming the key.
  const std::vector<std::vector<std::string>> out_of_range{
      {"safeguard_margin", "nan"}, {"safeguard_margin", "inf"},
      {"safeguard_margin", "-3"},  {"safeguard_margin", "0.500001"},
      {"stall_window", "0"},       {"stall_window", "-5"},
      {"max_iterations", "-1"}};
  for (const std::vector<std::string>& tokens : out_of_range) {
    const std::string id = tokens[0] == "safeguard_margin"
                               ? kAlgorithmInterpolation
                               : kAlgorithmCombined;
    try {
      parse_policy(id, tokens);
      ADD_FAILURE() << tokens[0] << " " << tokens[1] << " was accepted";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(tokens[0]), std::string::npos)
          << err.what();
    }
  }
  // The ends of each range are accepted.
  const std::vector<std::string> zero_margin{"safeguard_margin", "0"};
  EXPECT_NO_THROW(parse_policy(kAlgorithmInterpolation, zero_margin));
  const std::vector<std::string> half_margin{"safeguard_margin", "0.5"};
  EXPECT_NO_THROW(parse_policy(kAlgorithmInterpolation, half_margin));
  const std::vector<std::string> unit_window{"stall_window", "1"};
  EXPECT_NO_THROW(parse_policy(kAlgorithmCombined, unit_window));
  const std::vector<std::string> no_iterations{"max_iterations", "0"};
  EXPECT_NO_THROW(parse_policy(kAlgorithmBasic, no_iterations));
}

TEST(PolicyGrammar, BoundedKeysTuneTheInnerSolve) {
  const std::vector<std::string> tokens{"stall_window", "9"};
  const PartitionPolicy policy = parse_policy(kAlgorithmBounded, tokens);
  EXPECT_EQ(policy.stall_window, 9);
  EXPECT_EQ(format_policy(policy), "bounded stall_window 9");
}

// ---------------------------------------------------------------------------
// Consumers dispatch through the engine.
// ---------------------------------------------------------------------------

TEST(PolicyConsumers, HierarchicalRejectsPerProcessorBounds) {
  std::vector<SpeedList> groups;
  const Ensemble e = fpm::test::power_ensemble(4);
  const SpeedList flat = e.list();
  groups.push_back({flat[0], flat[1]});
  groups.push_back({flat[2], flat[3]});
  PartitionPolicy policy;
  policy.bounds = {1, 2, 3, 4};
  EXPECT_THROW(partition_hierarchical(groups, 1000, policy),
               std::invalid_argument);
}

TEST(PolicyConsumers, HierarchicalHonoursTheAlgorithmChoice) {
  std::vector<SpeedList> groups;
  const Ensemble e = fpm::test::power_ensemble(4);
  const SpeedList flat = e.list();
  groups.push_back({flat[0], flat[1]});
  groups.push_back({flat[2], flat[3]});
  PartitionPolicy policy;
  policy.algorithm = kAlgorithmModified;
  const HierarchicalResult r = partition_hierarchical(groups, 100'003, policy);
  EXPECT_EQ(r.stats.algorithm, kAlgorithmHierarchical);
  std::int64_t total = 0;
  for (const std::int64_t c : r.flatten()) total += c;
  EXPECT_EQ(total, 100'003);
}

}  // namespace
}  // namespace fpm::core
