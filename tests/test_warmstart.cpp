// Warm-started partitioning: a PartitionHint must never change the answer —
// only the search cost. Covers bit-identity for every registry algorithm
// across drifting n, perturbed models, and deliberately wrong hints; the
// hit/stale classification and its metrics; the cost advantage of a good
// hint, down to the 3x search-phase cut on served near-miss traffic and on
// the rebalancer's drift sweep; the server's per-fingerprint hint store;
// the batched SoA kernels against the per-entry virtual reference; and the
// batch plan's lane coverage.
//
// The constant ensemble is deliberately absent from the hint sweeps: with
// piecewise-constant speeds the optimum can land exactly on an integer, and
// two *valid* converged brackets may then legitimately disagree about the
// boundary element. Every other family has strictly varying curves.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {
namespace {

using fpm::test::Ensemble;

/// Hint-sweep families: every non-constant ensemble plus the mixed one.
std::vector<Ensemble> hint_ensembles(std::size_t p) {
  std::vector<Ensemble> out;
  for (Ensemble& e : fpm::test::all_ensembles(p))
    if (e.name != "constant") out.push_back(std::move(e));
  out.push_back(fpm::test::mixed_ensemble());
  return out;
}

PartitionHint hint_from(const PartitionResult& result, std::int64_t n,
                        std::uint64_t fingerprint) {
  PartitionHint hint;
  hint.slope = result.stats.final_slope;
  hint.n = n;
  hint.fingerprint = fingerprint;
  hint.baseline_iterations = result.stats.iterations;
  return hint;
}

TEST(WarmStart, BitIdenticalAcrossRegistryOnDriftingN) {
  constexpr std::int64_t kBase = 1'000'003;
  const std::vector<std::int64_t> drifts{-250'000, -37, -1, 0,
                                         1,        23,  4'001, 250'000};
  for (const Ensemble& e : hint_ensembles(6)) {
    const SpeedList speeds = e.list();
    const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
    for (const std::string& id : partitioner_registry().ids()) {
      PartitionPolicy cold_policy;
      cold_policy.algorithm = id;
      const PartitionResult seed = partition(speeds, kBase, cold_policy);
      const PartitionHint hint = hint_from(seed, kBase, fp);
      for (const std::int64_t drift : drifts) {
        const std::int64_t n = kBase + drift;
        const PartitionResult cold = partition(speeds, n, cold_policy);
        PartitionPolicy warm_policy = cold_policy;
        warm_policy.hint = hint;
        const PartitionResult warm = partition(speeds, n, warm_policy);
        EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
            << e.name << " " << id << " n=" << n;
      }
    }
  }
}

TEST(WarmStart, BitIdenticalWhenModelsDriftUnderTheHint) {
  // A hint learned on one model set applied to a slightly different one —
  // the rebalancer's situation every round (fingerprint 0: no staleness
  // check, the verified bracket alone decides).
  constexpr std::int64_t kN = 600'000;
  const Ensemble before = fpm::test::linear_ensemble(6, 4.0e8);
  const Ensemble after = fpm::test::linear_ensemble(6, 4.3e8);
  const SpeedList drifted = after.list();
  for (const std::string& id : partitioner_registry().ids()) {
    PartitionPolicy cold_policy;
    cold_policy.algorithm = id;
    const PartitionResult seed = partition(before.list(), kN, cold_policy);
    const PartitionResult cold = partition(drifted, kN, cold_policy);
    PartitionPolicy warm_policy = cold_policy;
    warm_policy.hint = hint_from(seed, kN, 0);
    const PartitionResult warm = partition(drifted, kN, warm_policy);
    EXPECT_EQ(warm.distribution.counts, cold.distribution.counts) << id;
  }
}

TEST(WarmStart, WrongHintsNeverChangeTheAnswer) {
  constexpr std::int64_t kN = 750'011;
  const Ensemble e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
  struct Case {
    const char* label;
    double slope;
    std::uint64_t fingerprint;
    WarmStart expected;
  };
  const std::vector<Case> cases{
      {"absurdly-high", 1e300, fp, WarmStart::Stale},
      {"absurdly-low", 1e-300, fp, WarmStart::Stale},
      {"wrong-fingerprint", 0.0 /* filled below */, fp ^ 0xdeadbeefULL,
       WarmStart::Stale},
      {"nan", std::numeric_limits<double>::quiet_NaN(), fp, WarmStart::None},
      {"infinite", std::numeric_limits<double>::infinity(), fp,
       WarmStart::None},
      {"negative", -3.5, fp, WarmStart::None},
      {"zero", 0.0, fp, WarmStart::None},
  };
  for (const std::string& id : partitioner_registry().ids()) {
    PartitionPolicy cold_policy;
    cold_policy.algorithm = id;
    const PartitionResult cold = partition(speeds, kN, cold_policy);
    for (const Case& c : cases) {
      PartitionHint hint;
      hint.slope = c.slope;
      if (std::string(c.label) == "wrong-fingerprint")
        hint.slope = cold.stats.final_slope;  // right slope, wrong models
      hint.n = kN;
      hint.fingerprint = c.fingerprint;
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint;
      const PartitionResult warm = partition(speeds, kN, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << id << " " << c.label;
      EXPECT_EQ(warm.stats.warmstart, c.expected) << id << " " << c.label;
    }
  }
}

TEST(WarmStart, SecantStepLeavingTheWindowIsStale) {
  // A hint whose slope is off by more than the 16x window: the first probe
  // (the centre itself) lies inside the window, the secant step towards the
  // optimum does not, and that step alone makes the hint stale — one probe
  // spent, then the cold bracket. The same offsets inside the window are
  // walked back to the optimum and adopted.
  constexpr std::int64_t kN = 750'011;
  const Ensemble e = fpm::test::mixed_ensemble();
  const SpeedList speeds = e.list();
  const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
  for (const std::string& id : partitioner_registry().ids()) {
    PartitionPolicy cold_policy;
    cold_policy.algorithm = id;
    const PartitionResult cold = partition(speeds, kN, cold_policy);
    for (const double factor : {20.0, 1.0 / 20.0, 4.0, 1.0 / 4.0}) {
      PartitionHint hint;
      hint.slope = cold.stats.final_slope * factor;
      hint.n = kN;
      hint.fingerprint = fp;
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint;
      const PartitionResult warm = partition(speeds, kN, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << id << " x" << factor;
      const bool outside = factor > 16.0 || factor < 1.0 / 16.0;
      EXPECT_EQ(warm.stats.warmstart,
                outside ? WarmStart::Stale : WarmStart::Hit)
          << id << " x" << factor;
      if (outside) {
        EXPECT_EQ(warm.stats.warm_probes, 1) << id << " x" << factor;
      }
    }
  }
}

TEST(WarmStart, ServedTrafficShapeHitsBitIdenticallyAndCheaply) {
  // The served near-miss shape: p = 64 synthetic fleets, each request
  // hinted with its fleet's previous solve (slope, n, fingerprint), n
  // drifting by -25% .. +100% from one request to the next (+100% is the
  // step between a cache-hit workload's problem sizes). Every registry
  // algorithm must answer bit-identically to a cold solve and adopt the
  // hint; hinted combined searches must average at most 8 line sweeps
  // (search_intersect_solves / p).
  constexpr std::size_t kP = 64;
  constexpr int kRequests = 24;
  double combined_sweeps = 0.0;
  int combined_solves = 0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    const SyntheticFleet fleet = make_synthetic_fleet(kP, 2004 + k);
    const SpeedList speeds = fleet.list();
    const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
    const auto base = static_cast<std::int64_t>(1'000'000 + 7919 * k);
    std::mt19937_64 rng(k);
    std::vector<std::int64_t> ns{base};
    for (int r = 1; r < kRequests; ++r) {
      // Drift uniformly in [-25%, +100%], downwards only once n has grown
      // past 4x the base, so n stays within [base/4, 8 base].
      const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
      const double drift =
          ns.back() > 4 * base ? -0.25 * u : -0.25 + 1.25 * u;
      ns.push_back(static_cast<std::int64_t>(
          std::llround(static_cast<double>(ns.back()) * (1.0 + drift))));
    }
    for (const std::string& id : partitioner_registry().ids()) {
      PartitionPolicy cold_policy;
      cold_policy.algorithm = id;
      PartitionResult prev = partition(speeds, ns[0], cold_policy);
      for (int r = 1; r < kRequests; ++r) {
        const std::int64_t n = ns[static_cast<std::size_t>(r)];
        PartitionPolicy warm_policy = cold_policy;
        warm_policy.hint = hint_from(prev, ns[static_cast<std::size_t>(r - 1)],
                                     fp);
        const PartitionResult warm = partition(speeds, n, warm_policy);
        const PartitionResult cold = partition(speeds, n, cold_policy);
        EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
            << "fleet " << k << " " << id << " n=" << n;
        EXPECT_EQ(warm.stats.warmstart, WarmStart::Hit)
            << "fleet " << k << " " << id << " n=" << n;
        if (id == kAlgorithmCombined) {
          combined_sweeps += static_cast<double>(
                                 warm.stats.search_intersect_solves) /
                             static_cast<double>(kP);
          ++combined_solves;
        }
        prev = warm;
      }
    }
  }
  ASSERT_GT(combined_solves, 0);
  EXPECT_LE(combined_sweeps / combined_solves, 8.0);
}

TEST(WarmStart, GoodHintHitsAndCostsNoMoreEvals) {
  constexpr std::int64_t kN = 900'007;
  for (const Ensemble& e : hint_ensembles(6)) {
    const SpeedList speeds = e.list();
    const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
    for (const std::string& id : partitioner_registry().ids()) {
      if (id == kAlgorithmBounded) continue;  // final_slope is the residual
                                              // round's, not the problem's
      PartitionPolicy cold_policy;
      cold_policy.algorithm = id;
      const PartitionResult cold = partition(speeds, kN, cold_policy);
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint_from(cold, kN, fp);
      const PartitionResult warm = partition(speeds, kN, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << e.name << " " << id;
      EXPECT_EQ(warm.stats.warmstart, WarmStart::Hit) << e.name << " " << id;
      EXPECT_LE(warm.stats.speed_evals, cold.stats.speed_evals)
          << e.name << " " << id;
      EXPECT_LE(warm.stats.iterations, cold.stats.iterations)
          << e.name << " " << id;
      EXPECT_EQ(warm.stats.iterations_saved,
                cold.stats.iterations - warm.stats.iterations)
          << e.name << " " << id;
    }
  }
}

TEST(WarmStart, HitCostsNoMoreThanTheSecantColdStart) {
  // The warm and the cold start share one secant routine. Whenever a hint
  // is adopted, the default search must cost no more line solves than the
  // same search run cold from the secant bracket, over drifts from a
  // near miss to 10x. The shared routine takes up to nine secant probes
  // for this; with four, several of these hits cost more than the cold
  // start.
  const std::vector<Ensemble> families = hint_ensembles(6);
  std::vector<SyntheticFleet> fleets;
  for (std::uint64_t s = 1; s <= 3; ++s)
    fleets.push_back(make_synthetic_fleet(64, s));
  struct Case {
    std::string name;
    SpeedList speeds;
    std::int64_t n;
  };
  std::vector<Case> cases;
  for (const Ensemble& e : families)
    cases.push_back({e.name, e.list(), 10'000'019});
  for (const SyntheticFleet& f : fleets)
    cases.push_back({"fleet64", f.list(), 1'000'000'000});
  int solves = 0, hits = 0;
  for (const std::string& backend : fpm::test::runnable_backends()) {
    const fpm::test::BackendScope scope(backend);
    for (const Case& c : cases) {
      const PartitionResult base = partition(c.speeds, c.n);
      for (const double drift : {1.0001, 1.01, 1.1, 1.5, 2.0, 0.5, 4.0, 10.0}) {
        const auto n =
            static_cast<std::int64_t>(static_cast<double>(c.n) * drift);
        PartitionPolicy warm_policy;
        warm_policy.hint = hint_from(base, c.n, 0);
        const PartitionResult warm = partition(c.speeds, n, warm_policy);
        const PartitionResult cold = partition(c.speeds, n);
        EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
            << backend << " " << c.name << " x" << drift;
        ++solves;
        if (warm.stats.warmstart != WarmStart::Hit) continue;
        ++hits;
        EXPECT_LE(warm.stats.search_intersect_solves,
                  cold.stats.search_intersect_solves)
            << backend << " " << c.name << " x" << drift;
      }
    }
  }
  // Only the exponential family's widest drifts go stale.
  EXPECT_GE(10 * hits, 9 * solves);
}

TEST(WarmStart, MetricsClassifyHitsAndStaleness) {
  constexpr std::int64_t kN = 512'009;
  const Ensemble e = fpm::test::power_ensemble(5);
  const SpeedList speeds = e.list();
  const std::uint64_t fp = CompiledSpeedList::fingerprint_of(speeds);
  auto& hits = obs::metrics().counter(obs::names::kPartitionWarmstartHits);
  auto& stale = obs::metrics().counter(obs::names::kPartitionWarmstartStale);
  auto& saved =
      obs::metrics().counter(obs::names::kPartitionWarmstartIterationsSaved);
  auto& probes = obs::metrics().counter(obs::names::kPartitionWarmstartProbes);

  const PartitionResult cold = partition(speeds, kN);
  EXPECT_EQ(cold.stats.warm_probes, 0);
  PartitionPolicy good;
  good.hint = hint_from(cold, kN, fp);
  const std::int64_t hits0 = hits.value();
  const std::int64_t stale0 = stale.value();
  const std::int64_t saved0 = saved.value();
  const std::int64_t probes0 = probes.value();
  const PartitionResult warm = partition(speeds, kN + 17, good);
  EXPECT_EQ(warm.stats.warmstart, WarmStart::Hit);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(stale.value(), stale0);
  EXPECT_EQ(saved.value(), saved0 + warm.stats.iterations_saved);
  // At least the centre and one straddle line; within the 12-solve budget.
  EXPECT_GE(warm.stats.warm_probes, 2);
  EXPECT_LE(warm.stats.warm_probes, 12);
  EXPECT_EQ(probes.value(), probes0 + warm.stats.warm_probes);

  // A fingerprint mismatch is rejected before any line is solved.
  PartitionPolicy bad = good;
  bad.hint->fingerprint = fp ^ 1;
  const PartitionResult stale_run = partition(speeds, kN + 17, bad);
  EXPECT_EQ(stale_run.stats.warmstart, WarmStart::Stale);
  EXPECT_EQ(stale.value(), stale0 + 1);
  EXPECT_EQ(hits.value(), hits0 + 1);
  EXPECT_EQ(stale_run.distribution.counts, warm.distribution.counts);
  EXPECT_EQ(stale_run.stats.warm_probes, 0);
  EXPECT_EQ(probes.value(), probes0 + warm.stats.warm_probes);
}

TEST(WarmStart, ServerWarmStartsNearMissTraffic) {
  constexpr std::int64_t kBase = 820'001;
  const Ensemble e = fpm::test::power_ensemble(6);
  const SpeedList speeds = e.list();
  auto& hits = obs::metrics().counter(obs::names::kPartitionWarmstartHits);

  ServerOptions opts;
  opts.threads = 1;
  PartitionServer server(opts);
  ASSERT_EQ(server.serve(speeds, kBase).distribution.counts,
            partition(speeds, kBase).distribution.counts);
  const std::int64_t hits0 = hits.value();
  for (std::int64_t drift : {3, 7, 19, 101}) {
    const std::int64_t n = kBase + drift;
    const PartitionResult served = server.serve(speeds, n);
    EXPECT_EQ(served.distribution.counts,
              partition(speeds, n).distribution.counts)
        << n;
    EXPECT_EQ(served.stats.warmstart, WarmStart::Hit) << n;
  }
  EXPECT_EQ(hits.value(), hits0 + 4);

  // Repeats of an already-served n are cache hits: no new solve, no new
  // warm-start classification.
  const std::int64_t hits_after = hits.value();
  server.serve(speeds, kBase + 3);
  EXPECT_EQ(hits.value(), hits_after);

  // With warm-starting off the server still answers identically, cold.
  ServerOptions off = opts;
  off.warm_start = false;
  PartitionServer cold_server(off);
  cold_server.serve(speeds, kBase);
  const PartitionResult cold_served = cold_server.serve(speeds, kBase + 19);
  EXPECT_EQ(cold_served.stats.warmstart, WarmStart::None);
  EXPECT_EQ(cold_served.distribution.counts,
            partition(speeds, kBase + 19).distribution.counts);
}

TEST(WarmStart, ServerNearMissCutsSearchEvalsThreeFold) {
  // Near-miss traffic on one model list: 200 requests at drifting n, every
  // one a result-cache miss. The server's per-fingerprint slope hint must
  // cut the search-phase speed evaluations at least 3x against cold solves
  // (a direct partition() is what a warm_start = false server runs), and
  // never cost more evaluations in total.
  constexpr int kRequests = 200;
  const Ensemble e = fpm::test::power_ensemble(16);
  const SpeedList speeds = e.list();
  PartitionServer server(ServerOptions{.threads = 1});
  std::int64_t cold_search = 0, cold_total = 0;
  std::int64_t warm_search = 0, warm_total = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::int64_t n = 1'000'000 + 37LL * i;
    const PartitionResult cold = partition(speeds, n);
    const PartitionResult warm = server.serve(speeds, n);
    EXPECT_EQ(warm.distribution.counts, cold.distribution.counts) << n;
    cold_search += cold.stats.search_speed_evals;
    cold_total += cold.stats.speed_evals;
    warm_search += warm.stats.search_speed_evals;
    warm_total += warm.stats.speed_evals;
  }
  ASSERT_GT(warm_search, 0);
  EXPECT_GE(static_cast<double>(cold_search) /
                static_cast<double>(warm_search),
            3.0)
      << "cold " << cold_search << " warm " << warm_search;
  EXPECT_LE(warm_total, cold_total);
}

TEST(WarmStart, DriftSweepCutsSearchEvalsThreeFold) {
  // The rebalancer's loop: 30 rounds of a p = 16 power fleet whose speeds
  // wobble by 0.1% while n creeps, each round hinted with the previous
  // round's slope under fingerprint 0 (only the bracket check decides).
  // Every hinted round must match its cold solve bit for bit, the modified
  // policy must spend at least 3x fewer search-phase speed evaluations, and
  // no policy may spend more evaluations in total than cold.
  constexpr int kRounds = 30;
  constexpr double kWobble = 0.001;
  for (const char* algorithm : {kAlgorithmModified, kAlgorithmCombined}) {
    std::int64_t cold_search = 0, cold_total = 0;
    std::int64_t warm_search = 0, warm_total = 0;
    std::optional<PartitionHint> hint;
    for (int r = 0; r < kRounds; ++r) {
      const double wob = 1.0 + kWobble * std::sin(0.7 * r);
      Ensemble round{"drift", {}};
      for (int i = 0; i < 16; ++i) {
        const double d = static_cast<double>(i);
        round.owned.push_back(std::make_shared<PowerDecaySpeed>(
            (90.0 + 60.0 * d) * wob, 2e7 * (1.0 + d), 0.8 + 0.3 * (i % 3),
            1e9));
      }
      const SpeedList speeds = round.list();
      const std::int64_t n = 1'000'000 + 37LL * r;
      PartitionPolicy cold_policy;
      cold_policy.algorithm = algorithm;
      const PartitionResult cold = partition(speeds, n, cold_policy);
      PartitionPolicy warm_policy = cold_policy;
      warm_policy.hint = hint;
      const PartitionResult warm = partition(speeds, n, warm_policy);
      EXPECT_EQ(warm.distribution.counts, cold.distribution.counts)
          << algorithm << " round " << r;
      cold_search += cold.stats.search_speed_evals;
      cold_total += cold.stats.speed_evals;
      warm_search += warm.stats.search_speed_evals;
      warm_total += warm.stats.speed_evals;
      hint = PartitionHint{};
      hint->slope = warm.stats.final_slope;
      hint->n = n;
      hint->baseline_iterations = cold.stats.iterations;
    }
    if (std::string(algorithm) == kAlgorithmModified) {
      ASSERT_GT(warm_search, 0);
      EXPECT_GE(static_cast<double>(cold_search) /
                    static_cast<double>(warm_search),
                3.0)
          << "cold " << cold_search << " warm " << warm_search;
    }
    EXPECT_LE(warm_total, cold_total) << algorithm;
  }
}

TEST(WarmStart, CallerSuppliedHintWinsOverTheServerStore) {
  const Ensemble e = fpm::test::linear_ensemble(4);
  const SpeedList speeds = e.list();
  PartitionServer server(ServerOptions{.threads = 1});
  const PartitionResult seed = server.serve(speeds, 300'000);
  PartitionPolicy policy;
  policy.hint = hint_from(seed, 300'000,
                          CompiledSpeedList::fingerprint_of(speeds));
  const PartitionResult served = server.serve(speeds, 300'021, policy);
  EXPECT_EQ(served.stats.warmstart, WarmStart::Hit);
  EXPECT_EQ(served.distribution.counts,
            partition(speeds, 300'021).distribution.counts);
}

TEST(WarmStart, BatchedKernelToggleIsBitIdentical) {
  // The toggle is between the batched SoA lanes of the known families and
  // the same models wrapped in VirtualOnly, whose Generic entries are
  // solved one virtual call at a time. Scalar batch mode: the SIMD lanes are
  // only ULP-equivalent (the equivalence gate lives in tests/test_simd.cpp).
  const fpm::test::BackendScope scalar;
  std::vector<Ensemble> ensembles = fpm::test::all_ensembles(6);
  ensembles.push_back(fpm::test::mixed_ensemble());
  for (const Ensemble& e : ensembles) {
    const SpeedList speeds = e.list();
    const fpm::test::VirtualOnlyList wrapped(speeds);
    ASSERT_EQ(CompiledSpeedList::compile(wrapped.list()).generic_entries(),
              speeds.size());
    for (const std::string& id : partitioner_registry().ids()) {
      PartitionPolicy policy;
      policy.algorithm = id;
      for (const std::int64_t n : {1'000LL, 1'000'003LL, 1'000'000LL}) {
        const PartitionResult batched = partition(speeds, n, policy);
        const PartitionResult virt = partition(wrapped.list(), n, policy);
        const std::string where =
            e.name + " " + id + " n=" + std::to_string(n);
        EXPECT_EQ(batched.distribution.counts, virt.distribution.counts)
            << where;
        EXPECT_EQ(batched.stats.iterations, virt.stats.iterations) << where;
        EXPECT_EQ(batched.stats.intersections, virt.stats.intersections)
            << where;
        EXPECT_EQ(batched.stats.final_slope, virt.stats.final_slope) << where;
        EXPECT_EQ(batched.stats.speed_evals, virt.stats.speed_evals) << where;
        EXPECT_EQ(batched.stats.intersect_solves, virt.stats.intersect_solves)
            << where;
        EXPECT_EQ(batched.stats.switched_to_modified,
                  virt.stats.switched_to_modified)
            << where;
      }
    }
  }
}

TEST(WarmStart, BatchPlanCoversClosedFormFamilies) {
  // Unwrapped constant/linear/power/exp entries ride the SoA lanes, and the
  // mixed ensemble's well-behaved unimodal and stepped members now ride the
  // iterative vector lanes too — the whole ensemble is batched.
  const Ensemble closed = fpm::test::power_ensemble(5);
  const CompiledSpeedList compiled_closed =
      CompiledSpeedList::compile(closed.list());
  EXPECT_EQ(compiled_closed.batched_entries(), 5u);

  const Ensemble mixed = fpm::test::mixed_ensemble();
  const CompiledSpeedList compiled_mixed =
      CompiledSpeedList::compile(mixed.list());
  EXPECT_EQ(compiled_mixed.batched_entries(), 5u);
}

}  // namespace
}  // namespace fpm::core
