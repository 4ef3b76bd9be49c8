// The warm-start chain: next_hint(), the one function that turns a solve
// into the hint for the next, and the consumers that chain through it —
// the server's hint store, the Variable Group Block groups and the
// Rebalancer's rounds. The basic algorithm opens cold solves from Figure
// 18, so its `iterations` show what a warm hit saves; every hit of a chain
// must report iterations_saved against the chain's last cold solve.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "apps/vgb.hpp"
#include "balance/rebalancer.hpp"
#include "core/compiled.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {
namespace {

/// The process-wide warm-start counters partition() feeds.
struct WarmCounters {
  obs::Counter& hits =
      obs::metrics().counter(obs::names::kPartitionWarmstartHits);
  obs::Counter& saved =
      obs::metrics().counter(obs::names::kPartitionWarmstartIterationsSaved);
};

TEST(NextHint, HitKeepsThePreviousBaselineOtherwiseTheResultsIterations) {
  PartitionResult result;
  result.stats.final_slope = 0.25;
  result.stats.iterations = 7;
  const PartitionHint previous{
      .slope = 0.5, .n = 100, .fingerprint = 9, .baseline_iterations = 31};

  result.stats.warmstart = WarmStart::Hit;
  const std::optional<PartitionHint> hit =
      next_hint(result, 1000, &previous, 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->slope, 0.25);
  EXPECT_EQ(hit->n, 1000);
  EXPECT_EQ(hit->fingerprint, 42u);
  EXPECT_EQ(hit->baseline_iterations, 31);
  // A hit on a hint that is not the chain's own starts a new baseline.
  EXPECT_EQ(next_hint(result, 1000, nullptr, 42)->baseline_iterations, 7);

  for (const WarmStart outcome : {WarmStart::None, WarmStart::Stale}) {
    result.stats.warmstart = outcome;
    const std::optional<PartitionHint> cold =
        next_hint(result, 1000, &previous, 0);
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(cold->baseline_iterations, 7);
    EXPECT_EQ(cold->fingerprint, 0u);
  }
}

TEST(NextHint, SlopeThatIsNotPositiveAndFiniteEndsTheChain) {
  PartitionResult result;
  result.stats.warmstart = WarmStart::Hit;
  const PartitionHint previous{.slope = 0.5, .baseline_iterations = 31};
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double slope : {0.0, -1.0, kNaN, kInf}) {
    result.stats.final_slope = slope;
    EXPECT_FALSE(next_hint(result, 1000, &previous, 42).has_value()) << slope;
  }
}

TEST(HintChain, ServerHitsSaveAgainstTheColdSolve) {
  const fpm::test::Ensemble e = fpm::test::power_ensemble(6);
  const SpeedList speeds = e.list();
  const PartitionPolicy basic{.algorithm = kAlgorithmBasic};
  PartitionServer server(ServerOptions{.threads = 1});
  constexpr std::int64_t kBase = 820'001;
  const PartitionResult cold = server.serve(speeds, kBase, basic);
  ASSERT_EQ(cold.stats.warmstart, WarmStart::None);
  for (const std::int64_t drift : {7, 19}) {
    const PartitionResult warm = server.serve(speeds, kBase + drift, basic);
    ASSERT_EQ(warm.stats.warmstart, WarmStart::Hit) << drift;
    EXPECT_GT(warm.stats.iterations_saved, 0) << drift;
    EXPECT_EQ(warm.stats.iterations_saved,
              cold.stats.iterations - warm.stats.iterations)
        << drift;
  }
}

TEST(HintChain, VgbGroupHitsSaveAgainstTheFirstGroup) {
  const fpm::test::Ensemble e = fpm::test::power_ensemble(6);
  const SpeedList models = e.list();
  constexpr std::int64_t kN = 3000;
  apps::VgbOptions opts;
  opts.block = 32;
  opts.policy.algorithm = kAlgorithmBasic;
  const WarmCounters counters;
  const std::int64_t hits0 = counters.hits.value();
  const std::int64_t saved0 = counters.saved.value();
  const apps::VgbDistribution d = apps::variable_group_block(models, kN, opts);
  const std::int64_t hits = counters.hits.value() - hits0;
  const std::int64_t saved = counters.saved.value() - saved0;

  // Replay the group solves (each group's remaining columns, squared) with
  // hints whose baseline is the first, cold, group solve.
  const std::uint64_t fingerprint = CompiledSpeedList::fingerprint_of(models);
  std::optional<PartitionHint> hint;
  int baseline = 0;
  std::int64_t expected_saved = 0;
  std::int64_t remaining = kN;
  for (const std::int64_t g : d.group_sizes) {
    const std::int64_t elements = remaining * remaining;
    const PartitionResult r = partition(
        models, elements, {.algorithm = kAlgorithmBasic, .hint = hint});
    if (hint) {
      ASSERT_EQ(r.stats.warmstart, WarmStart::Hit) << elements;
      EXPECT_GT(r.stats.iterations_saved, 0) << elements;
      expected_saved += r.stats.iterations_saved;
    } else {
      baseline = r.stats.iterations;
    }
    hint = PartitionHint{.slope = r.stats.final_slope,
                         .n = elements,
                         .fingerprint = fingerprint,
                         .baseline_iterations = baseline};
    remaining -= std::min(remaining, g * opts.block);
  }
  ASSERT_GE(d.group_sizes.size(), 3u);
  EXPECT_EQ(hits, static_cast<std::int64_t>(d.group_sizes.size()) - 1);
  EXPECT_EQ(saved, expected_saved);
}

TEST(HintChain, RebalancerRoundHitsSaveAgainstTheColdRound) {
  // Four processors at fixed speeds; every round past the warm-up solves
  // the learned curves, and a gain margin of 1 rejects each candidate, so
  // the distribution (and the curves) stay put and each round is a repeat.
  balance::OnlineModelOptions model;
  model.min_size = 10.0;
  model.max_size = 1e6;
  model.buckets = 16;
  balance::RebalancerOptions opts;
  opts.warmup_iterations = 1;
  opts.cooldown_iterations = 0;
  opts.imbalance_threshold = 0.0;
  opts.gain_margin = 1.0;
  opts.policy.algorithm = kAlgorithmBasic;
  std::vector<int> iterations;  // per solve, from the search's steps
  opts.policy.observer = [&iterations](const SearchStep& step) {
    if (step.kind == SearchStepKind::Bracket)
      iterations.push_back(0);
    else
      ++iterations.back();
  };
  balance::Rebalancer rebalancer(4, 100'000, model, opts);
  const double speeds[] = {100.0, 200.0, 300.0, 400.0};
  const WarmCounters counters;
  std::vector<std::int64_t> hits, saved;
  for (int round = 0; round < 4; ++round) {
    std::vector<double> seconds;
    for (std::size_t i = 0; i < 4; ++i)
      seconds.push_back(
          static_cast<double>(rebalancer.distribution().counts[i]) /
          speeds[i]);
    const std::int64_t hits0 = counters.hits.value();
    const std::int64_t saved0 = counters.saved.value();
    EXPECT_FALSE(rebalancer.step(seconds));
    hits.push_back(counters.hits.value() - hits0);
    saved.push_back(counters.saved.value() - saved0);
  }
  // Round 0 is the warm-up; rounds 1-3 solve cold, then hit twice.
  ASSERT_EQ(iterations.size(), 3u);
  EXPECT_EQ(hits, (std::vector<std::int64_t>{0, 0, 1, 1}));
  EXPECT_EQ(saved[1], 0);
  for (std::size_t round = 2; round < 4; ++round) {
    EXPECT_GT(saved[round], 0) << round;
    EXPECT_EQ(saved[round], iterations[0] - iterations[round - 1]) << round;
  }
}

}  // namespace
}  // namespace fpm::core
