// Equivalence and edge-case coverage for the vectorized batch-intersect
// kernels (core/detail/simd.hpp wired through CompiledSpeedList):
//
//  * the ULP-toleranced SIMD-vs-scalar gate on intersect_all, with the
//    virtual SpeedFunction path as the oracle,
//  * bit-identity guarantees that hold on every backend (per-entry
//    intersect, scalar mode, the piecewise vector scan),
//  * speed_kernels.hpp edge cases near the punt boundaries: exp-decay's
//    1e-280 underflow floor plateau, power-decay's beyond-2^256 delegation
//    to generic_intersect (and its bracket-saturation tally), piecewise
//    tail intersects across rising / flat / falling final segments,
//  * the stepped Newton lane on plateau, sharp-transition and near-max_size
//    crossings, with punts limited to beyond-max_size crossings,
//  * the registry-wide equivalence gate (exact sum to n, makespan within
//    fine-tune tolerance) for every algorithm with SIMD on, and identical
//    distributions on the benchmark's fleets,
//  * the O(p)-parallel intersect_all path and the synthetic fleet
//    generator's determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detail/parallel.hpp"
#include "core/detail/simd.hpp"
#include "core/detail/speed_kernels.hpp"
#include "core/detail/search_state.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm {
namespace {

using core::CompiledSpeedList;

using test::BackendScope;

/// The compiled-in variants this CPU can actually run.
std::vector<const core::detail::simd::SimdKernels*> runnable_variants() {
  std::vector<const core::detail::simd::SimdKernels*> out;
  for (const auto* k : core::detail::simd::compiled_simd_variants())
    if (core::detail::simd::simd_variant_supported(*k)) out.push_back(k);
  return out;
}

/// RAII guard around the parallel-sweep threshold.
class ThresholdGuard {
 public:
  explicit ThresholdGuard(std::size_t t)
      : old_(core::parallel_intersect_threshold()) {
    core::set_parallel_intersect_threshold(t);
  }
  ~ThresholdGuard() { core::set_parallel_intersect_threshold(old_); }

 private:
  std::size_t old_;
};

constexpr double kUlpTolerance = 1e-12;  // relative, generous vs ~1e-15 seen

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(b), 1e-300);
  return std::abs(a - b) / denom;
}

/// An unknown SpeedFunction subclass: compiles to a Generic entry, so every
/// intersect goes through the generic bisection of speed_kernels.hpp.
class OpaqueConstantSpeed final : public core::SpeedFunction {
 public:
  OpaqueConstantSpeed(double s0, double max_size) : s0_(s0), max_(max_size) {}
  double speed(double) const override { return s0_; }
  double max_size() const override { return max_; }

 private:
  double s0_;
  double max_;
};

std::vector<double> sweep_slopes() {
  std::vector<double> slopes;
  for (int i = -6; i <= 6; i += 2) slopes.push_back(std::pow(10.0, i));
  return slopes;
}

TEST(Simd, IntersectAllMatchesVirtualOracleWithinTolerance) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(512, 7);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  BackendScope vector_mode("auto");
  for (const double slope : sweep_slopes()) {
    c.intersect_all(slope, xs);
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
          << "entry " << i << " slope " << slope;
    }
  }
}

TEST(Simd, ScalarToggleRestoresBitIdentity) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(256, 11);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  BackendScope scalar;
  for (const double slope : sweep_slopes()) {
    c.intersect_all(slope, xs);
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(xs[i], list[i]->intersect(slope))
          << "entry " << i << " slope " << slope;
  }
}

TEST(Simd, PerEntryIntersectBitIdenticalRegardlessOfToggle) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(128, 3);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  for (const bool enabled : {true, false}) {
    BackendScope backend(enabled ? "auto" : "off");
    for (const double slope : sweep_slopes())
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_EQ(c.intersect(i, slope), list[i]->intersect(slope))
            << "entry " << i << " slope " << slope << " simd " << enabled;
  }
}

// --- speed_kernels.hpp edge cases, against the virtual oracle. ----------

TEST(Simd, ExpDecayUnderflowFloorPlateau) {
  // Deep in the tail the curve underflows the 1e-280 floor: the crossing
  // is the plateau point floor/slope for both paths. Several lambdas so a
  // whole batch lane runs the vector kernel.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 8; ++i)
    owned.push_back(std::make_shared<core::ExpDecaySpeed>(
        100.0 + i, 1.0 + 0.125 * i, 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  // Slopes shallow enough that the root lands far beyond the floor
  // crossing (s0·e^-x/lambda < 1e-280 at the line), plus one regular one.
  for (const double slope : {1e-290, 1e-300, 0.5}) {
    BackendScope vector_mode("auto");
    c.intersect_all(slope, xs);
    for (std::size_t i = 0; i < list.size(); ++i) {
      const double oracle = list[i]->intersect(slope);
      EXPECT_LE(rel_diff(xs[i], oracle), kUlpTolerance)
          << "entry " << i << " slope " << slope;
      if (slope < 1e-285) {
        // On the plateau the answer is exactly floor/slope — one IEEE
        // division in both kernels, so exact equality is expected.
        EXPECT_EQ(xs[i], oracle) << "entry " << i << " slope " << slope;
      }
    }
  }
}

TEST(Simd, PowerDecayBeyondDelegationThreshold) {
  // A slope so shallow the closed-form root exceeds max_size·2^256: the
  // scalar kernel delegates to generic_intersect; the vector kernel must
  // punt (NaN sentinel) so the same scalar delegation decides. Results are
  // therefore exactly equal, and the generic bracket saturates (root far
  // beyond max_size·2^256), which the tally must record.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 8; ++i)
    owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        100.0 + i, 10.0, 0.001 + 0.0001 * i, 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  const double slope = 1e-120;  // root ~ e^280, max_size·2^256 ~ 1e83

  std::int64_t& tally = core::detail::bracket_saturation_tally();
  const std::int64_t before = tally;
  BackendScope vector_mode("auto");
  c.intersect_all(slope, xs);
  EXPECT_GT(tally, before) << "delegated brackets should saturate";
  for (std::size_t i = 0; i < list.size(); ++i)
    EXPECT_EQ(xs[i], list[i]->intersect(slope)) << "entry " << i;
}

TEST(Simd, PiecewiseTailIntersectAcrossFinalSegmentShapes) {
  // >= 16 breakpoints engages the vectorized segment scan. Three final
  // segment shapes — rising (allowed while s/x still falls), flat, and
  // falling — exercised at slopes crossing the head, the interior, and the
  // extrapolated tail.
  const auto make = [](double last_step) {
    std::vector<core::SpeedPoint> pts;
    double x = 1e3, s = 500.0;
    for (int j = 0; j < 19; ++j) {
      pts.push_back({x, s});
      x *= 1.9;
      s *= 0.93;
    }
    pts.push_back({x, s * last_step});
    return std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts));
  };
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned{
      make(1.2),  // rising final segment (x grows 1.9x, speed only 1.2x)
      make(1.0),  // flat
      make(0.6),  // falling
  };
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (const double slope : {1.0, 1e-2, 1e-4, 1e-6, 1e-9}) {
    for (const bool enabled : {true, false}) {
      BackendScope backend(enabled ? "auto" : "off");
      c.intersect_all(slope, xs);
      for (std::size_t i = 0; i < list.size(); ++i) {
        // The vector scan picks the same segment as the binary search and
        // the segment solve is the same scalar arithmetic: bit-identical.
        EXPECT_EQ(xs[i], list[i]->intersect(slope))
            << "entry " << i << " slope " << slope << " simd " << enabled;
      }
    }
  }
}

// --- Registry-wide equivalence with SIMD on. ----------------------------

double makespan(const core::SpeedList& speeds,
                const std::vector<std::int64_t>& counts) {
  double worst = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] <= 0) continue;
    const double x = static_cast<double>(counts[i]);
    worst = std::max(worst, x / speeds[i]->speed(x));
  }
  return worst;
}

TEST(Simd, EveryRegistryAlgorithmEquivalentToScalarOracle) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(96, 5);
  const core::SpeedList list = fleet.list();
  const std::int64_t n = 40'000'000;
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries()) {
    core::PartitionPolicy policy;
    policy.algorithm = info.id;
    core::PartitionResult oracle, simd;
    {
      BackendScope scalar;
      oracle = core::partition(list, n, policy);
    }
    {
      BackendScope vector_mode("auto");
      simd = core::partition(list, n, policy);
    }
    EXPECT_EQ(simd.distribution.total(), n) << info.id;
    EXPECT_EQ(oracle.distribution.total(), n) << info.id;
    // Few-ULP slope differences may break integer ties differently, but
    // fine-tuning must land on an equally good makespan.
    EXPECT_LE(rel_diff(makespan(list, simd.distribution.counts),
                       makespan(list, oracle.distribution.counts)),
              1e-9)
        << info.id;
  }
}

// --- Parallel sweep path. -----------------------------------------------

TEST(Simd, ParallelSweepMatchesSerialSweep) {
  core::detail::set_lane_pool_threads(2);  // before the pool lazily starts
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(700, 13);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> serial(list.size()), parallel(list.size());
  for (const bool enabled : {true, false}) {
    BackendScope backend(enabled ? "auto" : "off");
    for (const double slope : sweep_slopes()) {
      {
        ThresholdGuard serial_only(100'000);  // above p: serial path
        c.intersect_all(slope, serial);
      }
      {
        ThresholdGuard always(1);  // below p: parallel path
        c.intersect_all(slope, parallel);
      }
      // Chunks write disjoint ranges with the same kernels: the split must
      // be invisible in the output, bit for bit.
      EXPECT_EQ(serial, parallel) << "slope " << slope << " simd " << enabled;
    }
  }
}

TEST(Simd, ParallelSweepMigratesSaturationTally) {
  core::detail::set_lane_pool_threads(2);
  // Generic entries whose brackets saturate at this slope: the tally delta
  // must land on the calling thread even when pool workers ran the chunks.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 40; ++i)
    owned.push_back(std::make_shared<OpaqueConstantSpeed>(100.0 + i, 1.0));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  ASSERT_EQ(c.batched_entries(), 0u);  // all Generic -> fallback lane
  std::vector<double> xs(list.size());
  ThresholdGuard always(1);
  std::int64_t& tally = core::detail::bracket_saturation_tally();
  const std::int64_t before = tally;
  c.intersect_all(1e-80, xs);  // 100 >= 1e-80·(2^256) never crosses
  EXPECT_EQ(tally - before, static_cast<std::int64_t>(list.size()));
}

// --- PartitionStats / SearchState plumbing. -----------------------------

TEST(Simd, SearchStateSnapshotsSaturationTally) {
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned{
      std::make_shared<OpaqueConstantSpeed>(100.0, 1.0),
      std::make_shared<OpaqueConstantSpeed>(50.0, 1.0)};
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  core::detail::SearchState state(compiled, 1000);
  EXPECT_EQ(state.bracket_saturations(), 0);
  // A follow-up solve on the constructing thread (the fine-tuning pattern)
  // that saturates must be visible in the snapshot delta.
  (void)list[0]->intersect(1e-80);
  EXPECT_EQ(state.bracket_saturations(), 1);
}

TEST(Simd, PartitionStatsReportZeroSaturationsOnHealthyFleets) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 9);
  const core::PartitionResult res = core::partition(fleet.list(), 1'000'000);
  EXPECT_EQ(res.stats.bracket_saturations, 0);
  EXPECT_EQ(res.distribution.total(), 1'000'000);
}

// --- Fleet generator. ---------------------------------------------------

TEST(Simd, FleetGeneratorIsDeterministicPerSeed) {
  const core::SyntheticFleet a = core::make_synthetic_fleet(333, 21);
  const core::SyntheticFleet b = core::make_synthetic_fleet(333, 21);
  const core::SyntheticFleet other = core::make_synthetic_fleet(333, 22);
  EXPECT_EQ(CompiledSpeedList::fingerprint_of(a.list()),
            CompiledSpeedList::fingerprint_of(b.list()));
  EXPECT_NE(CompiledSpeedList::fingerprint_of(a.list()),
            CompiledSpeedList::fingerprint_of(other.list()));
}

TEST(Simd, FleetGeneratorScalesToLargeP) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(4096, 1);
  ASSERT_EQ(fleet.owned.size(), 4096u);
  const auto c = CompiledSpeedList::compile(fleet.list());
  EXPECT_TRUE(c.fully_compiled());
  EXPECT_GT(c.batched_entries(), 3000u);  // closed-form families dominate
}

// --- Cross-backend equivalence. -----------------------------------------

TEST(Simd, EveryCompiledBackendMatchesScalarOracle) {
  const auto variants = runnable_variants();
  if (variants.empty()) GTEST_SKIP() << "no vector variants in this build";
  // The seed-17 fleet over the slope sweep, and the seed-42 fleet at the
  // final slope of each registry algorithm's scalar solve of n = 1e9: the
  // lines the search actually converges to.
  const core::SyntheticFleet sweep_fleet = core::make_synthetic_fleet(512, 17);
  const core::SyntheticFleet solve_fleet = core::make_synthetic_fleet(512, 42);
  std::vector<double> final_slopes;
  {
    BackendScope scalar;
    for (const core::PartitionerInfo& info :
         core::partitioner_registry().entries()) {
      core::PartitionPolicy policy;
      policy.algorithm = info.id;
      final_slopes.push_back(
          core::partition(solve_fleet.list(), 1'000'000'000, policy)
              .stats.final_slope);
    }
  }
  const std::pair<const core::SyntheticFleet*, std::vector<double>> cases[] = {
      {&sweep_fleet, sweep_slopes()}, {&solve_fleet, final_slopes}};
  for (const auto& [fleet, slopes] : cases) {
    const core::SpeedList list = fleet->list();
    const auto c = CompiledSpeedList::compile(list);
    std::vector<double> xs(list.size());
    for (const auto* k : variants) {
      SCOPED_TRACE(k->name);
      BackendScope backend(k->name);
      for (const double slope : slopes) {
        c.intersect_all(slope, xs);
        for (std::size_t i = 0; i < list.size(); ++i)
          EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
              << "entry " << i << " slope " << slope;
      }
    }
  }
}

TEST(Simd, UnimodalAndSteppedLanesMatchOracleOnEveryBackend) {
  // A fleet made purely of the iterative lanes (unimodal bisection, stepped
  // Newton): 24 unimodal curves, 24 stepped curves with 1..4 steps, plus
  // one stepped curve with more steps than kMaxVecSteps (compile-time punt
  // to the per-entry path). Shallow slopes push some crossings to
  // max_size, exercising the runtime punt.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 24; ++i)
    owned.push_back(std::make_shared<core::UnimodalSpeed>(
        10.0 + i, 120.0 + 3.0 * i, 1e4 * (1.0 + i % 5), 2e5 + 1e4 * i,
        1.2 + 0.05 * i, 5e6));
  for (int i = 0; i < 24; ++i) {
    std::vector<core::SteppedSpeed::Step> steps;
    double at = 3e3 * (1.0 + i % 3), to = 90.0 + i;
    for (int s = 0; s <= i % 4; ++s) {
      steps.push_back({at, to, 50.0 + 10.0 * s});
      at *= 7.0;
      to *= 0.55;
    }
    owned.push_back(
        std::make_shared<core::SteppedSpeed>(140.0 + i, std::move(steps), 8e6));
  }
  {
    std::vector<core::SteppedSpeed::Step> many;
    double at = 1e3, to = 200.0;
    for (int s = 0; s < 12; ++s) {
      many.push_back({at, to, 40.0});
      at *= 3.0;
      to *= 0.8;
    }
    owned.push_back(
        std::make_shared<core::SteppedSpeed>(250.0, std::move(many), 1e9));
  }
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  EXPECT_EQ(c.batched_entries(), list.size() - 1);  // the 12-step curve punts
  std::vector<double> xs(list.size());
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    for (const double slope : {1e3, 1.0, 1e-2, 1e-5, 1e-9}) {
      c.intersect_all(slope, xs);
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
            << "entry " << i << " slope " << slope;
    }
    // Beyond-max_size crossings must punt to the scalar bisection: with a
    // slope so shallow every crossing clears even max_size·2^256 the
    // answers are exactly the per-entry results, bracket expansion and its
    // saturation tally included.
    std::int64_t& tally = core::detail::bracket_saturation_tally();
    const std::int64_t before = tally;
    c.intersect_all(1e-300, xs);
    EXPECT_GT(tally, before) << "saturating brackets must be tallied";
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(xs[i], list[i]->intersect(1e-300)) << "entry " << i;
  }
}

/// Entries the last intersect_all sweeps handed to an exact scalar kernel.
std::int64_t scalar_entries() {
  return obs::metrics()
      .counter(obs::names::kPartitionBatchScalarEntries)
      .value();
}

/// Whether the stepped lane must punt `f` at `slope`: the line is not
/// clearly above the curve at max_size (the kernel's 1e-10 margin), so the
/// crossing needs the scalar bracket expansion.
bool beyond_max_size(const core::SpeedFunction& f, double slope) {
  const double b = f.max_size();
  return !(f.speed(b) * (1.0 + 1e-10) < slope * b);
}

/// Runs intersect_all at each slope on every runnable backend: lanes that
/// must punt equal the per-entry scalar answer exactly, every other lane is
/// within kUlpTolerance of it, and the lane punts nothing else — the
/// partition.batch.scalar_entries delta counts the punts, so a lane that
/// failed to converge shows up there.
void expect_stepped_lane_matches_oracle(const CompiledSpeedList& c,
                                        const core::SpeedList& list,
                                        const std::vector<double>& slopes) {
  ASSERT_EQ(c.batched_entries(), list.size());  // everything rides the lane
  std::vector<std::vector<double>> oracle(slopes.size());
  std::vector<std::int64_t> punts(slopes.size(), 0);
  {
    BackendScope scalar;
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      oracle[s].resize(list.size());
      c.intersect_all(slopes[s], oracle[s]);
      for (const core::SpeedFunction* f : list)
        punts[s] += beyond_max_size(*f, slopes[s]);
    }
  }
  std::vector<double> xs(list.size());
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    for (std::size_t s = 0; s < slopes.size(); ++s) {
      const std::int64_t before = scalar_entries();
      c.intersect_all(slopes[s], xs);
      EXPECT_EQ(scalar_entries() - before, punts[s]) << "slope " << slopes[s];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (beyond_max_size(*list[i], slopes[s]))
          EXPECT_EQ(xs[i], oracle[s][i])
              << "entry " << i << " slope " << slopes[s];
        else
          EXPECT_LE(rel_diff(xs[i], oracle[s][i]), kUlpTolerance)
              << "entry " << i << " slope " << slopes[s];
      }
    }
  }
}

TEST(Simd, SteppedLaneSolvesPlateauTransitionAndMaxSizeCrossings) {
  // Stepped curves shaped like make_synthetic_fleet's (log-uniform s0 and
  // capacity, plateaus falling by 0.1-0.5x per step) over the lane's whole
  // range: 1..8 steps, width/at log-uniform over [0.005, 0.5].
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  const auto rnd = [&state] {  // uniform in [0, 1)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  const auto log_uniform = [&rnd](double lo, double hi) {
    return lo * std::pow(hi / lo, rnd());
  };
  std::vector<std::shared_ptr<const core::SteppedSpeed>> owned;
  for (int nsteps = 1; nsteps <= 8; ++nsteps) {
    for (int curve = 0; curve < 8; ++curve) {
      const double s0 = log_uniform(50.0, 5000.0);
      const double cap = log_uniform(1e6, 1e9);
      std::vector<core::SteppedSpeed::Step> steps;
      double level = s0;
      for (int j = 0; j < nsteps; ++j) {
        // One centre per log-spaced slice of [1e-4, 0.5]·cap keeps the
        // steps ordered.
        const double at =
            cap * 1e-4 * std::pow(5000.0, (j + 0.1 + 0.8 * rnd()) / nsteps);
        level *= 0.1 + 0.4 * rnd();
        steps.push_back({at, level, at * log_uniform(0.005, 0.5)});
      }
      owned.push_back(
          std::make_shared<core::SteppedSpeed>(s0, std::move(steps), cap));
    }
  }
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  // Four lines per curve, through a point on one of its plateaus, inside
  // its sharpest transition, just below max_size, and beyond it (a punt).
  // Each line meets the other 63 curves wherever it happens to.
  std::vector<double> slopes;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    const core::SteppedSpeed& f = *owned[i];
    const std::vector<core::SteppedSpeed::Step>& st = f.steps();
    const std::size_t k = i % (st.size() + 1);
    const double plateau =
        k == 0           ? 0.1 * st[0].at
        : k == st.size() ? std::min(10.0 * st.back().at, 0.5 * f.max_size())
                         : std::sqrt(st[k - 1].at * st[k].at);
    std::size_t sharp = 0;
    for (std::size_t j = 1; j < st.size(); ++j)
      if (st[j].width / st[j].at < st[sharp].width / st[sharp].at) sharp = j;
    for (const double x :
         {plateau, st[sharp].at + 0.25 * st[sharp].width,
          f.max_size() * (1.0 - 1e-6), f.max_size() * 4.0})
      slopes.push_back(f.speed(x) / x);
  }
  expect_stepped_lane_matches_oracle(CompiledSpeedList::compile(list), list,
                                     slopes);
}

TEST(Simd, SteppedLanePuntsOnlyBeyondMaxSizeOnStepOnlyFleet) {
  // The p = 4096 fleet shape of the solve benchmark with every machine
  // stepped: at the solve's final slope and the two lines of its initial
  // bracket, the only punts are crossings beyond max_size.
  core::FleetMix stepped_only;
  stepped_only.constant = stepped_only.linear_decay = 0.0;
  stepped_only.power_decay = stepped_only.exp_decay = 0.0;
  stepped_only.piecewise = 0.0;
  stepped_only.stepped = 1.0;
  const core::SyntheticFleet fleet =
      core::make_synthetic_fleet(4096, 1, stepped_only);
  const core::SpeedList list = fleet.list();
  constexpr std::int64_t n = 1'000'000'000;
  const core::SlopeBracket bracket = core::detect_bracket(list, n);
  const double final_slope = core::partition(list, n).stats.final_slope;
  ASSERT_GT(final_slope, 0.0);
  expect_stepped_lane_matches_oracle(
      CompiledSpeedList::compile(list), list,
      {bracket.lo_slope, final_slope, bracket.hi_slope});
}

TEST(Simd, DistributionsEqualScalarOnBenchmarkFleets) {
  // The fleets bench/perf solves — p = 64 from seeds 2004 + k (the serve
  // workloads) and p = 4096 from seed 1 (solve_p4096) — and the p = 512
  // seed-42 fleet at n = 1e9 under every registry algorithm give the same
  // integer allocation with SIMD on, on every backend, as in scalar mode,
  // and the scalar allocation sums to n.
  struct Problem {
    std::size_t fleet;
    std::int64_t n;
    const char* algorithm;
  };
  std::vector<core::SyntheticFleet> fleets;
  std::vector<Problem> problems;
  const auto& algorithms = core::partitioner_registry().entries();
  for (std::size_t k = 0; k < 32; ++k) {
    fleets.push_back(core::make_synthetic_fleet(64, 2004 + k));
    for (const std::int64_t j : {0, 1, 2, 5}) {
      const auto n = static_cast<std::int64_t>(1'000'000 + 7919 * k +
                                               1'000'000 * j + 48'611 * j);
      for (const core::PartitionerInfo& info : algorithms)
        problems.push_back({k, n, info.id.c_str()});
    }
  }
  fleets.push_back(core::make_synthetic_fleet(4096, 1));
  for (const char* algorithm : {core::kAlgorithmCombined,
                                core::kAlgorithmInterpolation,
                                core::kAlgorithmBounded})
    for (const std::int64_t n : {1'000'000'000LL, 1'061'803'398LL})
      problems.push_back({fleets.size() - 1, n, algorithm});
  fleets.push_back(core::make_synthetic_fleet(512, 42));
  for (const core::PartitionerInfo& info : algorithms)
    problems.push_back({fleets.size() - 1, 1'000'000'000LL, info.id.c_str()});
  const auto solve = [&fleets](const Problem& problem) {
    core::PartitionPolicy policy;
    policy.algorithm = problem.algorithm;
    return core::partition(fleets[problem.fleet].list(), problem.n, policy)
        .distribution.counts;
  };
  std::vector<std::vector<std::int64_t>> oracle;
  {
    BackendScope scalar;
    for (const Problem& problem : problems) {
      oracle.push_back(solve(problem));
      EXPECT_EQ(std::accumulate(oracle.back().begin(), oracle.back().end(),
                                std::int64_t{0}),
                problem.n)
          << problem.algorithm << " fleet " << problem.fleet;
    }
  }
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    for (std::size_t i = 0; i < problems.size(); ++i)
      EXPECT_EQ(solve(problems[i]), oracle[i])
          << problems[i].algorithm << " fleet " << problems[i].fleet
          << " n " << problems[i].n;
  }
}

TEST(Simd, EightWidePuntBoundaryFuzz) {
  // 64 exp-decay curves straddling the 1e-280 underflow floor and 64
  // power-decay curves straddling the 2^256 delegation threshold: at 8-wide
  // every register mixes punting and non-punting lanes, so a mask handled
  // per 4-wide assumptions would corrupt neighbours. Deterministic LCG
  // parameters; every backend must stay inside the tolerance, and punted
  // decisions must be exactly scalar.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto rnd = [&state] {  // uniform in [0, 1)
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 64; ++i)
    owned.push_back(std::make_shared<core::ExpDecaySpeed>(
        50.0 + 200.0 * rnd(), 0.5 + 2.0 * rnd(), 1e8));
  for (int i = 0; i < 64; ++i)
    owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        50.0 + 200.0 * rnd(), 5.0 + 20.0 * rnd(), 0.0005 + 0.1 * rnd(), 1e6));
  core::SpeedList list;
  for (const auto& f : owned) list.push_back(f.get());
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    for (const double slope :
         {1e2, 1.0, 1e-30, 1e-120, 1e-200, 1e-285, 1e-295, 1e-305}) {
      c.intersect_all(slope, xs);
      for (std::size_t i = 0; i < list.size(); ++i)
        EXPECT_LE(rel_diff(xs[i], list[i]->intersect(slope)), kUlpTolerance)
            << "entry " << i << " slope " << slope;
    }
  }
}

TEST(Simd, RegistryAlgorithmsEquivalentOnEveryBackend) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(96, 5);
  const core::SpeedList list = fleet.list();
  const std::int64_t n = 40'000'000;
  std::vector<core::PartitionResult> oracle;
  {
    BackendScope scalar;
    for (const core::PartitionerInfo& info :
         core::partitioner_registry().entries()) {
      core::PartitionPolicy policy;
      policy.algorithm = info.id;
      oracle.push_back(core::partition(list, n, policy));
    }
  }
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    std::size_t a = 0;
    for (const core::PartitionerInfo& info :
         core::partitioner_registry().entries()) {
      core::PartitionPolicy policy;
      policy.algorithm = info.id;
      const core::PartitionResult r = core::partition(list, n, policy);
      EXPECT_EQ(r.distribution.total(), n) << info.id;
      EXPECT_LE(rel_diff(makespan(list, r.distribution.counts),
                         makespan(list, oracle[a].distribution.counts)),
                1e-9)
          << info.id;
      ++a;
    }
  }
}

// --- speeds_at / the fine-tune epilogue sweep. --------------------------

TEST(Simd, SpeedsAtMatchesPerEntrySpeeds) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(512, 23);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  std::vector<double> xs(list.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = 1.0 + static_cast<double>((i * 37) % 100000);
  // Scalar mode: the batched sweep is the same per-entry arithmetic in a
  // different loop — bit-identical.
  {
    BackendScope scalar;
    core::EvalCounters counters;
    const std::vector<double> got = core::speeds_at(c, xs, &counters);
    EXPECT_EQ(counters.speed_evals, static_cast<std::int64_t>(list.size()));
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_EQ(got[i], list[i]->speed(xs[i])) << "entry " << i;
  }
  // Vector mode, every backend: power/exp lanes run the polynomial kernels,
  // everything else stays bit-identical.
  for (const auto* k : runnable_variants()) {
    SCOPED_TRACE(k->name);
    BackendScope backend(k->name);
    const std::vector<double> got = core::speeds_at(c, xs, nullptr);
    for (std::size_t i = 0; i < list.size(); ++i)
      EXPECT_LE(rel_diff(got[i], list[i]->speed(xs[i])), kUlpTolerance)
          << "entry " << i;
  }
}

TEST(Simd, SizesAtBitIdenticalPerAlgorithmSlopesInScalarMode) {
  // One registry-algorithm solve per family mix, then replay its final
  // slope through sizes_at in batched and per-entry form: with the scalar
  // kernels the two must agree bit for bit for every algorithm.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(128, 29);
  const core::SpeedList list = fleet.list();
  const auto c = CompiledSpeedList::compile(list);
  BackendScope scalar;
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries()) {
    core::PartitionPolicy policy;
    policy.algorithm = info.id;
    const core::PartitionResult r = core::partition(list, 5'000'000, policy);
    const double slope = r.stats.final_slope;
    if (!(slope > 0.0)) continue;  // bounded may finish outside the bracket
    const std::vector<double> batched = core::sizes_at(c, slope, nullptr);
    std::vector<double> per_entry(list.size());
    for (std::size_t i = 0; i < list.size(); ++i)
      per_entry[i] = c.intersect(i, slope);
    EXPECT_EQ(batched, per_entry) << info.id;
  }
}

// --- Backend forcing / rejection. ---------------------------------------

TEST(Simd, ForceBackendRoundTripsAndRejectsUnknownNames) {
  BackendScope restore("auto");
  EXPECT_THROW(core::force_simd_backend("bogus"), std::invalid_argument);
  EXPECT_THROW(core::force_simd_backend(""), std::invalid_argument);
  for (const auto* k : core::detail::simd::compiled_simd_variants()) {
    if (!core::detail::simd::simd_variant_supported(*k)) {
      // Compiled in but not runnable here: forcing must refuse, not crash.
      EXPECT_THROW(core::force_simd_backend(k->name), std::invalid_argument);
      continue;
    }
    core::force_simd_backend(k->name);
    EXPECT_NE(core::active_simd_backend(), core::SimdBackend::Disabled);
    EXPECT_STREQ(core::to_string(core::active_simd_backend()), k->name);
  }
  core::force_simd_backend("off");
  EXPECT_EQ(core::active_simd_backend(), core::SimdBackend::Disabled);
  core::force_simd_backend("auto");
  if (core::simd_kernels_available()) {
    EXPECT_NE(core::active_simd_backend(), core::SimdBackend::Disabled);
  }
}

// --- Backend introspection. ---------------------------------------------

TEST(Simd, BackendIntrospectionIsConsistent) {
  const bool available = core::simd_kernels_available();
  const core::SimdBackend backend = core::active_simd_backend();
  if (!available) {
    EXPECT_EQ(backend, core::SimdBackend::Disabled);
  } else {
    BackendScope vector_mode("auto");
    EXPECT_NE(core::active_simd_backend(), core::SimdBackend::Disabled);
    BackendScope scalar;
    EXPECT_EQ(core::active_simd_backend(), core::SimdBackend::Disabled);
  }
}

}  // namespace
}  // namespace fpm
