// Tests for the simulated heterogeneous network: curve synthesis from
// machine specs (shapes, paging onsets), fluctuation bands, preset fidelity
// to Tables 1 and 2, measurement determinism, and model building over the
// cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/combined.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/machine.hpp"
#include "simcluster/presets.hpp"
#include "simcluster/workload.hpp"
#include "util/rng.hpp"

namespace fpm::sim {
namespace {

MachineSpec demo_spec() {
  return {"demo", "Linux", "x86", 1000.0, 1048576, 524288, 512};
}

TEST(MachineSpeed, SatisfiesShapeRequirementForAllPatterns) {
  for (const MemoryPattern pat :
       {MemoryPattern::Efficient, MemoryPattern::Moderate,
        MemoryPattern::Inefficient}) {
    AppProfile app;
    app.name = "t";
    app.pattern = pat;
    const MachineSpeed f(demo_spec(), app);
    EXPECT_TRUE(core::satisfies_shape_requirement(f))
        << static_cast<int>(pat);
  }
}

TEST(MachineSpeed, PagingCliffDegradesSpeed) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Efficient;
  const MachineSpeed f(demo_spec(), app);
  const double onset = f.paging_onset();
  // Well below the onset the speed is healthy; well past it, it collapses.
  EXPECT_GT(f.speed(onset * 0.5), 0.5 * f.peak_speed());
  EXPECT_LT(f.speed(onset * 2.0), 0.05 * f.peak_speed());
}

TEST(MachineSpeed, EfficientPatternHoldsPlateauPastCache) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Efficient;
  const MachineSpeed f(demo_spec(), app);
  const double c = f.cache_capacity();
  // Blocked code barely notices leaving cache (>= ~80% of peak).
  EXPECT_GT(f.speed(c * 4.0), 0.75 * f.peak_speed());
}

TEST(MachineSpeed, InefficientPatternDecaysSmoothly) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Inefficient;
  const MachineSpeed f(demo_spec(), app);
  const double c = f.cache_capacity();
  // Clearly below peak well out of cache, well before paging.
  EXPECT_LT(f.speed(c * 64.0), 0.8 * f.peak_speed());
  // And strictly decreasing through that region.
  EXPECT_GT(f.speed(c * 4.0), f.speed(c * 16.0));
}

TEST(MachineSpeed, PagingOnsetOverrideIsHonoured) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Moderate;
  const double onset = 9e6;
  const MachineSpeed f(demo_spec(), app, onset);
  EXPECT_DOUBLE_EQ(f.paging_onset(), onset);
  EXPECT_DOUBLE_EQ(f.max_size(), onset * 8.0);
}

TEST(MachineSpeed, FasterClockMeansFasterPlateau) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Efficient;
  MachineSpec slow = demo_spec();
  MachineSpec fast = demo_spec();
  fast.cpu_mhz = 3000.0;
  const MachineSpeed fs(slow, app);
  const MachineSpeed ff(fast, app);
  EXPECT_GT(ff.peak_speed(), 2.5 * fs.peak_speed());
}

TEST(MachineSpeed, OsSelectsPagingSharpness) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Efficient;
  MachineSpec linux_box = demo_spec();
  MachineSpec sun_box = demo_spec();
  sun_box.os = "SunOS 5.8";
  const MachineSpeed fl(linux_box, app);
  const MachineSpeed fsun(sun_box, app);
  // Same onset; the SunOS decay is gentler, so just past the onset the
  // Solaris machine retains relatively more of its speed.
  const double x = fl.paging_onset() * 1.5;
  EXPECT_GT(fsun.speed(x) / fsun.peak_speed(),
            fl.speed(x) / fl.peak_speed());
}

TEST(MachineSpeed, RejectsIncompleteSpecs) {
  AppProfile app;
  app.name = "t";
  MachineSpec bad = demo_spec();
  bad.cpu_mhz = 0.0;
  EXPECT_THROW((void)MachineSpeed(bad, app), std::invalid_argument);
  bad = demo_spec();
  bad.cache_kb = 0;
  EXPECT_THROW((void)MachineSpeed(bad, app), std::invalid_argument);
  // Paging onset below cache capacity is meaningless.
  EXPECT_THROW((void)MachineSpeed(demo_spec(), app, 10.0),
               std::invalid_argument);
}

TEST(Workload, BandShrinksWithProblemSize) {
  AppProfile app;
  app.name = "t";
  app.pattern = MemoryPattern::Moderate;
  const MachineSpeed truth(demo_spec(), app);
  const FluctuationProfile p{0.40, 0.06, 0.0};
  const double w_small = band_width(p, truth, truth.max_size() * 1e-4);
  const double w_large = band_width(p, truth, truth.max_size() * 0.8);
  EXPECT_NEAR(w_small, 0.40, 0.02);
  EXPECT_NEAR(w_large, 0.06, 0.005);
  EXPECT_GT(w_small, w_large);
}

TEST(Workload, LowIntegrationBandIsFlat) {
  AppProfile app;
  app.name = "t";
  const MachineSpeed truth(demo_spec(), app);
  const FluctuationProfile p = FluctuationProfile::low_integration(0.06);
  EXPECT_DOUBLE_EQ(band_width(p, truth, 100.0),
                   band_width(p, truth, truth.max_size() * 0.5));
}

TEST(Workload, LoadShiftMovesBandNotWidth) {
  AppProfile app;
  app.name = "t";
  const MachineSpeed truth(demo_spec(), app);
  const FluctuationProfile idle{0.2, 0.06, 0.0};
  const FluctuationProfile loaded{0.2, 0.06, 0.3};
  const double x = truth.cache_capacity() * 10.0;
  const BandEdges a = band_edges(idle, truth, x);
  const BandEdges c = band_edges(loaded, truth, x);
  EXPECT_NEAR(c.upper / a.upper, 0.7, 1e-9);
  EXPECT_NEAR(c.lower / a.lower, 0.7, 1e-9);
  // Relative width identical: (upper-lower)/centre invariant to the shift.
  EXPECT_NEAR((a.upper - a.lower) / (a.upper + a.lower),
              (c.upper - c.lower) / (c.upper + c.lower), 1e-12);
}

TEST(Workload, SamplesStayInsideBand) {
  AppProfile app;
  app.name = "t";
  const MachineSpeed truth(demo_spec(), app);
  const FluctuationProfile p{0.40, 0.06, 0.0};
  util::Rng rng(3);
  const double x = truth.cache_capacity() * 3.0;
  const BandEdges e = band_edges(p, truth, x);
  for (int i = 0; i < 500; ++i) {
    const double s = sample_speed(p, truth, x, rng);
    ASSERT_GE(s, e.lower);
    ASSERT_LE(s, e.upper);
  }
}

/// The band width with its anchor re-derived on every call: the bisection
/// for the smallest size where the speed falls to 30% of its small-size
/// value, then that size's execution time. `band_width` must match it bit
/// for bit, or every built model and partition downstream would move.
double band_width_by_per_call_bisection(const FluctuationProfile& p,
                                        const core::SpeedFunction& truth,
                                        double x) {
  const double b = truth.max_size();
  const double target = 0.3 * truth.speed(b * 1e-6);
  double sat = b;
  if (truth.speed(b) < target) {
    double lo = b * 1e-6;
    double hi = b;
    for (int i = 0; i < 100; ++i) {
      const double mid = 0.5 * (lo + hi);
      if (truth.speed(mid) >= target)
        lo = mid;
      else
        hi = mid;
    }
    sat = hi;
  }
  const double t = truth.time(std::max(x, 0.0));
  const double t_sat = truth.time(sat);
  const double frac = t_sat > 0.0 ? std::clamp(t / t_sat, 0.0, 1.0) : 1.0;
  return p.width_large + (p.width_small - p.width_large) * (1.0 - frac);
}

TEST(Workload, AnchorFixedAtConstructionMatchesPerCallBisection) {
  const FluctuationProfile wide{0.40, 0.06, 0.0};
  int checked = 0;
  for (const SimulatedCluster& cluster :
       {make_table1_cluster(), make_table2_cluster(), make_modern_cluster()}) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      const SimulatedMachine& m = cluster.machine(i);
      for (const auto& [app, truth] : m.apps) {
        const double b = truth->max_size();
        // 20 log-spaced sizes in (1e-6 b, b], the last one b itself.
        for (int k = 1; k <= 20; ++k) {
          const double x = k == 20 ? b : b * std::pow(10.0, -6.0 + 0.3 * k);
          for (const FluctuationProfile& p : {m.fluctuation, wide}) {
            EXPECT_EQ(band_width(p, *truth, x),
                      band_width_by_per_call_bisection(p, *truth, x))
                << m.spec.name << " " << app << " x=" << x;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Presets, Table1HasFourMachinesWithThreeApps) {
  const auto ms = table1_machines();
  ASSERT_EQ(ms.size(), 4u);
  EXPECT_EQ(ms[0].spec.name, "Comp1");
  EXPECT_EQ(ms[1].spec.name, "Comp2");
  for (const auto& m : ms) {
    EXPECT_EQ(m.apps.count(kArrayOps), 1u);
    EXPECT_EQ(m.apps.count(kMatMulAtlas), 1u);
    EXPECT_EQ(m.apps.count(kMatMul), 1u);
  }
  // Table 1 spot checks.
  EXPECT_DOUBLE_EQ(ms[0].spec.cpu_mhz, 2793.0);
  EXPECT_EQ(ms[1].spec.cache_kb, 2048);
  EXPECT_EQ(ms[3].spec.main_memory_kb, 254524);
}

TEST(Presets, Table2PagingColumnsArePinned) {
  const auto ms = table2_machines();
  ASSERT_EQ(ms.size(), 12u);
  // Paging(MM)=4500 for X1 means 3·4500² elements; Paging(LU)=6000 means
  // 6000² elements.
  const auto& x1 = ms[0];
  EXPECT_DOUBLE_EQ(x1.apps.at(kMatMul)->paging_onset(),
                   mm_problem_size(4500));
  EXPECT_DOUBLE_EQ(x1.apps.at(kLu)->paging_onset(), lu_problem_size(6000));
  const auto& x8 = ms[7];
  EXPECT_DOUBLE_EQ(x8.apps.at(kMatMul)->paging_onset(),
                   mm_problem_size(5500));
  EXPECT_DOUBLE_EQ(x8.apps.at(kLu)->paging_onset(), lu_problem_size(6500));
}

TEST(Presets, Table2EveryRowMatchesThePaper) {
  // Column-by-column fidelity check against the paper's Table 2.
  struct Row {
    const char* name;
    double mhz;
    std::int64_t main_kb;
    std::int64_t free_kb;
    std::int64_t cache_kb;
    std::int64_t paging_mm;
    std::int64_t paging_lu;
  };
  const Row expected[] = {
      {"X1", 997, 513304, 363264, 256, 4500, 6000},
      {"X2", 997, 254576, 65692, 256, 4000, 5000},
      {"X3", 2783, 7933500, 2221436, 512, 6400, 11000},
      {"X4", 2783, 7933500, 3073628, 512, 6400, 11000},
      {"X5", 1977, 1030508, 415904, 512, 6000, 8500},
      {"X6", 1977, 1030508, 364120, 512, 6000, 8500},
      {"X7", 1977, 1030508, 215752, 512, 6000, 8000},
      {"X8", 1977, 1030508, 134400, 512, 5500, 6500},
      {"X9", 1977, 1030508, 134400, 512, 5500, 6500},
      {"X10", 440, 524288, 409600, 2048, 4500, 5000},
      {"X11", 440, 524288, 418816, 2048, 4500, 5000},
      {"X12", 440, 524288, 395264, 2048, 4500, 5000},
  };
  const auto ms = table2_machines();
  ASSERT_EQ(ms.size(), std::size(expected));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Row& row = expected[i];
    const SimulatedMachine& m = ms[i];
    EXPECT_EQ(m.spec.name, row.name);
    EXPECT_DOUBLE_EQ(m.spec.cpu_mhz, row.mhz) << row.name;
    EXPECT_EQ(m.spec.main_memory_kb, row.main_kb) << row.name;
    EXPECT_EQ(m.spec.free_memory_kb, row.free_kb) << row.name;
    EXPECT_EQ(m.spec.cache_kb, row.cache_kb) << row.name;
    EXPECT_DOUBLE_EQ(m.apps.at(kMatMul)->paging_onset(),
                     mm_problem_size(row.paging_mm))
        << row.name;
    EXPECT_DOUBLE_EQ(m.apps.at(kLu)->paging_onset(),
                     lu_problem_size(row.paging_lu))
        << row.name;
  }
}

TEST(Presets, Table2IsReasonablyHeterogeneous) {
  // The paper reports max/min serial speed ratios of ~8 (MM) and ~6.8 (LU)
  // below the paging thresholds; the simulator should produce the same
  // order of heterogeneity.
  const auto cluster = make_table2_cluster();
  const double probe = mm_problem_size(3000);
  double fastest = 0.0, slowest = 1e18;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const double s = cluster.ground_truth(i, kMatMul).speed(probe);
    fastest = std::max(fastest, s);
    slowest = std::min(slowest, s);
  }
  const double ratio = fastest / slowest;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 20.0);
}

TEST(Presets, ModernClusterIsValidAndHeterogeneous) {
  auto cluster = make_modern_cluster();
  ASSERT_EQ(cluster.size(), 5u);
  double fastest = 0.0, slowest = 1e18;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const MachineSpeed& f = cluster.ground_truth(i, kMatMul);
    EXPECT_TRUE(core::satisfies_shape_requirement(f))
        << cluster.machine(i).spec.name;
    const double s = f.speed(f.cache_capacity() * 4.0);
    fastest = std::max(fastest, s);
    slowest = std::min(slowest, s);
  }
  EXPECT_GT(fastest / slowest, 1.3);
  // The functional model still beats the naive baseline on modern specs.
  const core::SpeedList models = cluster.ground_truth_list(kMatMul);
  const std::int64_t n = 3'000'000'000;  // past the laptop/sbc walls
  const core::Distribution func =
      core::partition_combined(models, n).distribution;
  const core::Distribution even = core::partition_even(n, cluster.size());
  EXPECT_LT(core::makespan(models, func), core::makespan(models, even));
}

TEST(Cluster, MeasurementIsSeedDeterministic) {
  auto c1 = make_table2_cluster(111);
  auto c2 = make_table2_cluster(111);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(c1.measure(3, kMatMul, 1e6), c2.measure(3, kMatMul, 1e6));
  auto c3 = make_table2_cluster(222);
  EXPECT_NE(c1.measure(3, kMatMul, 1e6), c3.measure(3, kMatMul, 1e6));
}

TEST(Cluster, ThrowsOnUnknownAppOrMachine) {
  auto cluster = make_table2_cluster();
  EXPECT_THROW(cluster.ground_truth(0, "NoSuchApp"), std::invalid_argument);
  EXPECT_THROW(cluster.machine(99), std::out_of_range);
}

TEST(Cluster, ExpectedSecondsMatchesHandComputation) {
  auto cluster = make_table2_cluster();
  const double x = 1e6;
  const double fpe = 10.0;
  const double mflops = cluster.ground_truth(2, kMatMul).speed(x) *
                        (1.0 - cluster.machine(2).fluctuation.load_shift);
  EXPECT_NEAR(cluster.expected_seconds(2, kMatMul, x, fpe),
              x * fpe / (mflops * 1e6), 1e-12);
  EXPECT_DOUBLE_EQ(cluster.expected_seconds(2, kMatMul, 0.0, fpe), 0.0);
}

TEST(Cluster, GroundTruthListCoversAllMachines) {
  auto cluster = make_table2_cluster();
  const core::SpeedList list = cluster.ground_truth_list(kLu);
  ASSERT_EQ(list.size(), 12u);
  for (const auto* f : list) EXPECT_NE(f, nullptr);
}

TEST(Cluster, BuildClusterModelsProducesUsableCurves) {
  auto cluster = make_table2_cluster(77);
  const ClusterModels models = build_cluster_models(cluster, kMatMul);
  ASSERT_EQ(models.curves.size(), 12u);
  for (std::size_t i = 0; i < models.curves.size(); ++i) {
    EXPECT_GT(models.probes[i], 0) << i;
    EXPECT_TRUE(core::satisfies_shape_requirement(models.curves[i])) << i;
    // The built curve tracks the ground truth at a mid-range size within
    // the fluctuation band's order of magnitude.
    const double x = cluster.ground_truth(i, kMatMul).paging_onset() * 0.4;
    const double truth = cluster.ground_truth(i, kMatMul).speed(x);
    EXPECT_NEAR(models.curves[i].speed(x), truth, 0.35 * truth) << i;
  }
}

TEST(Faults, CrashIsPermanentFromItsTick) {
  FaultScript s;
  s.crash(1, 3);
  EXPECT_FALSE(s.empty());
  EXPECT_FALSE(s.crashed(1, 2));
  EXPECT_TRUE(s.crashed(1, 3));
  EXPECT_TRUE(s.crashed(1, 99));
  EXPECT_FALSE(s.crashed(0, 99));  // unscripted machines are healthy
  EXPECT_EQ(s.crash_tick(1), 3);
  EXPECT_EQ(s.crash_tick(0), -1);
}

TEST(Faults, StallWindowIsHalfOpen) {
  FaultScript s;
  s.stall(2, 4, 7);
  EXPECT_FALSE(s.stalled(2, 3));
  EXPECT_TRUE(s.stalled(2, 4));
  EXPECT_TRUE(s.stalled(2, 6));
  EXPECT_FALSE(s.stalled(2, 7));  // recovered
  EXPECT_FALSE(s.stalled(1, 5));
}

TEST(Faults, MessageFaultsDefaultToHealthy) {
  FaultScript s;
  s.glitch(0, 0.5).drop_messages(1, 0.25).delay_messages(2, 3.0);
  EXPECT_DOUBLE_EQ(s.glitch_probability(0), 0.5);
  EXPECT_DOUBLE_EQ(s.glitch_probability(3), 0.0);
  EXPECT_DOUBLE_EQ(s.drop_probability(1), 0.25);
  EXPECT_DOUBLE_EQ(s.drop_probability(3), 0.0);
  EXPECT_DOUBLE_EQ(s.delay_factor(2), 3.0);
  EXPECT_DOUBLE_EQ(s.delay_factor(3), 1.0);
}

TEST(Faults, ValidatesArguments) {
  FaultScript s;
  EXPECT_THROW(s.crash(0, -1), std::invalid_argument);
  EXPECT_THROW(s.stall(0, 5, 4), std::invalid_argument);
  EXPECT_THROW(s.glitch(0, 1.5), std::invalid_argument);
  EXPECT_THROW(s.glitch(0, -0.1), std::invalid_argument);
  EXPECT_THROW(s.drop_messages(0, 2.0), std::invalid_argument);
  EXPECT_THROW(s.delay_messages(0, 0.5), std::invalid_argument);
  EXPECT_TRUE(s.empty());
  util::Rng rng(1);
  EXPECT_THROW(FaultScript::random(rng, 0, 10, 0.5, 0.5),
               std::invalid_argument);
  EXPECT_THROW(FaultScript::random(rng, 4, 0, 0.5, 0.5),
               std::invalid_argument);
}

TEST(Faults, RandomScriptIsSeedReproducibleAndSparesMachineZero) {
  util::Rng a(9), b(9);
  const FaultScript s1 = FaultScript::random(a, 8, 20, 0.7, 0.5);
  const FaultScript s2 = FaultScript::random(b, 8, 20, 0.7, 0.5);
  EXPECT_EQ(s1.crash_tick(0), -1);  // something must survive
  int crashes = 0;
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_EQ(s1.crash_tick(m), s2.crash_tick(m)) << m;
    for (int t = 0; t < 20; ++t)
      EXPECT_EQ(s1.stalled(m, t), s2.stalled(m, t)) << m << "@" << t;
    if (s1.crash_tick(m) >= 0) ++crashes;
  }
  EXPECT_GE(crashes, 1);  // p = 0.7 over 7 machines
}

TEST(Cluster, CrashedMachineThrowsFromItsTickOn) {
  auto cluster = make_table2_cluster(13);
  FaultScript s;
  s.crash(2, 3);
  cluster.set_fault_script(s);
  EXPECT_EQ(cluster.tick(), 0);
  EXPECT_TRUE(cluster.machine_alive(2));
  EXPECT_GT(cluster.measure(2, kMatMul, 1e6), 0.0);
  cluster.advance_time(3);
  EXPECT_EQ(cluster.tick(), 3);
  EXPECT_FALSE(cluster.machine_alive(2));
  try {
    cluster.measure(2, kMatMul, 1e6);
    FAIL() << "crashed machine must not run benchmarks";
  } catch (const MachineFailedError& e) {
    EXPECT_EQ(e.machine(), 2u);
    EXPECT_EQ(e.tick(), 3);
  }
  EXPECT_TRUE(cluster.machine_alive(1));  // neighbours unaffected
  EXPECT_GT(cluster.measure(1, kMatMul, 1e6), 0.0);
}

TEST(Cluster, StalledMachineYieldsNoMeasurementForTheWindow) {
  auto cluster = make_table2_cluster(13);
  FaultScript s;
  s.stall(1, 1, 3);
  cluster.set_fault_script(s);
  EXPECT_GT(cluster.measure(1, kMatMul, 1e6), 0.0);
  cluster.advance_time(1);
  EXPECT_TRUE(cluster.machine_stalled(1));
  EXPECT_TRUE(std::isnan(cluster.measure(1, kMatMul, 1e6)));
  cluster.advance_time(2);
  EXPECT_FALSE(cluster.machine_stalled(1));
  EXPECT_GT(cluster.measure(1, kMatMul, 1e6), 0.0);  // recovered
}

TEST(Cluster, GlitchAndMessageFaultsAreSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    auto cluster = make_table2_cluster(seed);
    FaultScript s;
    s.glitch(0, 0.5).drop_messages(1, 0.5).delay_messages(1, 2.5);
    cluster.set_fault_script(s);
    std::vector<double> trace;
    for (int i = 0; i < 12; ++i) {
      const double m = cluster.measure(0, kMatMul, 1e6);
      trace.push_back(std::isnan(m) ? -1.0 : m);
      trace.push_back(cluster.message_dropped(1) ? 1.0 : 0.0);
    }
    return trace;
  };
  const auto t1 = run(33);
  EXPECT_EQ(t1, run(33));
  // With p = 0.5 twelve draws virtually surely contain both outcomes.
  EXPECT_NE(std::count(t1.begin(), t1.end(), -1.0), 0);
  auto cluster = make_table2_cluster(33);
  FaultScript s;
  s.delay_messages(1, 2.5);
  cluster.set_fault_script(s);
  EXPECT_DOUBLE_EQ(cluster.message_delay_factor(1), 2.5);
  EXPECT_DOUBLE_EQ(cluster.message_delay_factor(0), 1.0);
}

TEST(Cluster, FaultFreeScriptKeepsMeasurementsByteIdentical) {
  // Installing an empty script must not perturb the RNG streams: seeded
  // experiments from before the fault subsystem replay exactly.
  auto plain = make_table2_cluster(77);
  auto scripted = make_table2_cluster(77);
  scripted.set_fault_script(FaultScript{});
  for (int i = 0; i < 6; ++i)
    EXPECT_DOUBLE_EQ(plain.measure(3, kMatMul, 1e6),
                     scripted.measure(3, kMatMul, 1e6));
}

TEST(Cluster, BuildClusterModelsSurvivesAGlitchingMachine) {
  // Machine 5's benchmark runs fail a third of the time; the retrying
  // measurement source must absorb the NaNs and still deliver a usable
  // curve close to the ground truth.
  auto cluster = make_table2_cluster(77);
  FaultScript s;
  s.glitch(5, 0.33);
  cluster.set_fault_script(s);
  const ClusterModels models = build_cluster_models(cluster, kMatMul);
  ASSERT_EQ(models.curves.size(), 12u);
  EXPECT_TRUE(core::satisfies_shape_requirement(models.curves[5]));
  const double x = cluster.ground_truth(5, kMatMul).paging_onset() * 0.4;
  const double truth = cluster.ground_truth(5, kMatMul).speed(x);
  EXPECT_NEAR(models.curves[5].speed(x), truth, 0.35 * truth);
}

TEST(Cluster, MachineMeasurementAdapterForwardss) {
  auto c1 = make_table2_cluster(5);
  auto c2 = make_table2_cluster(5);
  MachineMeasurement src(c1, 4, kLu);
  EXPECT_DOUBLE_EQ(src.measure(2e6), c2.measure(4, kLu, 2e6));
}

}  // namespace
}  // namespace fpm::sim
