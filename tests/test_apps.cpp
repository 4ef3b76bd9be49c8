// Tests for the driver applications: striped matrix multiplication
// (planning, simulation, numeric verification) and the Variable Group Block
// distribution with the LU makespan simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "apps/lu_app.hpp"
#include "apps/striped_mm.hpp"
#include "apps/vgb.hpp"
#include "core/compiled.hpp"
#include "helpers.hpp"
#include "linalg/kernels.hpp"
#include "obs/metrics.hpp"
#include "simcluster/cluster.hpp"
#include "simcluster/presets.hpp"

namespace fpm::apps {
namespace {

core::SpeedList truth_list(const sim::SimulatedCluster& cluster,
                           const char* app) {
  return cluster.ground_truth_list(app);
}

TEST(StripedMm, PlanCoversAllRows) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  for (const std::int64_t n : {12L, 100L, 3000L, 20000L}) {
    for (const ModelKind kind :
         {ModelKind::Functional, ModelKind::SingleNumber, ModelKind::Even}) {
      const StripedMmPlan plan = plan_striped_mm(models, n, kind);
      const std::int64_t total = std::accumulate(
          plan.rows.begin(), plan.rows.end(), std::int64_t{0});
      EXPECT_EQ(total, n) << n << " kind " << static_cast<int>(kind);
      for (const std::int64_t r : plan.rows) EXPECT_GE(r, 0);
    }
  }
}

TEST(StripedMm, FunctionalPlanFavoursFastMachines) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const StripedMmPlan plan =
      plan_striped_mm(models, 10000, ModelKind::Functional);
  // X3/X4 (2783 MHz Xeon bigmem, indices 2 and 3) must get more rows than
  // the Solaris Ultra-5s (440 MHz, indices 9-11).
  EXPECT_GT(plan.rows[2], plan.rows[9]);
  EXPECT_GT(plan.rows[3], plan.rows[11]);
}

TEST(StripedMm, EvenPlanIsEven) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const StripedMmPlan plan = plan_striped_mm(models, 120, ModelKind::Even);
  for (const std::int64_t r : plan.rows) EXPECT_EQ(r, 10);
}

TEST(StripedMm, RejectsBadArguments) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  EXPECT_THROW(plan_striped_mm({}, 10, ModelKind::Even),
               std::invalid_argument);
  EXPECT_THROW(plan_striped_mm(models, 0, ModelKind::Even),
               std::invalid_argument);
}

TEST(StripedMm, NumericsMatchSerialProduct) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const std::int64_t n = 60;
  const StripedMmPlan plan =
      plan_striped_mm(models, n, ModelKind::Functional);
  const util::MatrixD a = linalg::random_matrix(n, n, 21);
  const util::MatrixD b = linalg::random_matrix(n, n, 22);
  const util::MatrixD striped = striped_mm_compute(a, b, plan);
  const util::MatrixD serial = linalg::matmul_abt_naive(a, b);
  EXPECT_DOUBLE_EQ(util::max_abs_diff(striped, serial), 0.0);
}

TEST(StripedMm, SimulatedMakespanPositiveAndDeterministic) {
  auto c1 = sim::make_table2_cluster(9);
  auto c2 = sim::make_table2_cluster(9);
  const auto models = truth_list(c1, sim::kMatMul);
  const StripedMmPlan plan =
      plan_striped_mm(models, 5000, ModelKind::Functional);
  const double t1 = simulate_striped_mm_seconds(c1, sim::kMatMul, plan, 5000,
                                                /*sampled=*/true);
  const double t2 = simulate_striped_mm_seconds(c2, sim::kMatMul, plan, 5000,
                                                /*sampled=*/true);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(StripedMm, FunctionalBeatsSingleNumberOncePagingMatters) {
  // The paper's headline mechanism: at sizes where the single-number
  // reference misjudges paging behaviour, the functional plan wins.
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const std::int64_t n = 20000;  // deep past the smaller machines' onsets
  const auto func = plan_striped_mm(models, n, ModelKind::Functional);
  const auto single =
      plan_striped_mm(models, n, ModelKind::SingleNumber, 500);
  const double t_func =
      simulate_striped_mm_seconds(cluster, sim::kMatMul, func, n, false);
  const double t_single =
      simulate_striped_mm_seconds(cluster, sim::kMatMul, single, n, false);
  EXPECT_LT(t_func, t_single);
}

TEST(StripedMm, CommVariantMatchesComputeOnlyOnFreeNetwork) {
  // With an effectively free network the ring simulation must reproduce
  // the compute-only makespan structure (same total flops per machine).
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const std::int64_t n = 8000;
  const auto plan = plan_striped_mm(models, n, ModelKind::Functional);
  const comm::CommModel free_net =
      comm::CommModel::uniform(cluster.size(), {0.0, 1e18});
  const double t_plain =
      simulate_striped_mm_seconds(cluster, sim::kMatMul, plan, n, false);
  const double t_ring = simulate_striped_mm_with_comm_seconds(
      cluster, sim::kMatMul, plan, n, free_net, false);
  // The ring serializes into p steps with per-step maxima, so it is never
  // faster and close when machines are balanced by the plan.
  EXPECT_GE(t_ring, t_plain * (1.0 - 1e-9));
  EXPECT_LE(t_ring, t_plain * 2.0);
}

TEST(StripedMm, SlowNetworkInflatesRingTime) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kMatMul);
  const std::int64_t n = 8000;
  const auto plan = plan_striped_mm(models, n, ModelKind::Functional);
  const comm::CommModel fast =
      comm::CommModel::uniform(cluster.size(), {1e-5, 1.25e9});
  const comm::CommModel slow =
      comm::CommModel::uniform(cluster.size(), {1e-3, 1.25e6});
  EXPECT_LT(simulate_striped_mm_with_comm_seconds(cluster, sim::kMatMul, plan,
                                                  n, fast, false),
            simulate_striped_mm_with_comm_seconds(cluster, sim::kMatMul, plan,
                                                  n, slow, false));
}

TEST(LuSimulation, CommVariantAddsBroadcastCosts) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kLu);
  VgbOptions opts;
  opts.block = 128;
  const VgbDistribution d = variable_group_block(models, 4096, opts);
  const comm::CommModel net =
      comm::CommModel::uniform(cluster.size(), {1e-4, 12.5e6});
  const double t_plain = simulate_lu_seconds(cluster, sim::kLu, d, false);
  const double t_comm =
      simulate_lu_with_comm_seconds(cluster, sim::kLu, d, net, false);
  EXPECT_GT(t_comm, t_plain);
  // Free network converges back to the compute-only time.
  const comm::CommModel free_net =
      comm::CommModel::uniform(cluster.size(), {0.0, 1e18});
  EXPECT_NEAR(
      simulate_lu_with_comm_seconds(cluster, sim::kLu, d, free_net, false),
      t_plain, 1e-9 * t_plain);
}

TEST(Vgb, CoversAllBlocksExactly) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kLu);
  for (const std::int64_t n : {64L, 577L, 3000L}) {
    VgbOptions opts;
    opts.block = 32;
    const VgbDistribution d = variable_group_block(models, n, opts);
    EXPECT_EQ(d.total_blocks(), (n + 31) / 32) << n;
    const std::int64_t group_total = std::accumulate(
        d.group_sizes.begin(), d.group_sizes.end(), std::int64_t{0});
    EXPECT_EQ(group_total, d.total_blocks()) << n;
    for (const int owner : d.block_owner) {
      EXPECT_GE(owner, 0);
      EXPECT_LT(owner, 12);
    }
  }
}

TEST(Vgb, OwnedBlocksFromCountsSuffixes) {
  VgbDistribution d;
  d.n = 4;
  d.block = 1;
  d.block_owner = {0, 1, 0, 2};
  EXPECT_EQ(d.owned_blocks_from(0, 0), 2);
  EXPECT_EQ(d.owned_blocks_from(0, 1), 1);
  EXPECT_EQ(d.owned_blocks_from(0, 3), 0);
  EXPECT_EQ(d.owned_blocks_from(2, 0), 1);
}

TEST(Vgb, LastGroupStartsWithSlowestProcessors) {
  // Two constant speeds: fast (index 0) and slow (index 1). In every group
  // but the last, the fast processor's blocks come first; in the last
  // group the slow one leads (paper step 3).
  const core::ConstantSpeed fast(300.0, 1e10);
  const core::ConstantSpeed slow(100.0, 1e10);
  const core::SpeedList models{&fast, &slow};
  VgbOptions opts;
  opts.block = 8;
  const VgbDistribution d = variable_group_block(models, 512, opts);
  ASSERT_GE(d.group_sizes.size(), 2u);
  // First group leads with the fast processor.
  EXPECT_EQ(d.block_owner.front(), 0);
  // Last group leads with the slow processor.
  const std::int64_t last_start = d.total_blocks() - d.group_sizes.back();
  EXPECT_EQ(d.block_owner[static_cast<std::size_t>(last_start)], 1);
}

TEST(Vgb, GroupSharesFollowSpeedRatio) {
  const core::ConstantSpeed fast(300.0, 1e10);
  const core::ConstantSpeed slow(100.0, 1e10);
  const core::SpeedList models{&fast, &slow};
  VgbOptions opts;
  opts.block = 8;
  const VgbDistribution d = variable_group_block(models, 1024, opts);
  const std::int64_t fast_blocks = d.owned_blocks_from(0, 0);
  const std::int64_t slow_blocks = d.owned_blocks_from(1, 0);
  EXPECT_NEAR(static_cast<double>(fast_blocks) /
                  static_cast<double>(slow_blocks),
              3.0, 0.5);
}

TEST(Vgb, RejectsBadArguments) {
  const core::ConstantSpeed f(100.0, 1e10);
  const core::SpeedList models{&f};
  VgbOptions opts;
  EXPECT_THROW(variable_group_block({}, 100, opts), std::invalid_argument);
  opts.block = 0;
  EXPECT_THROW(variable_group_block(models, 100, opts),
               std::invalid_argument);
}

TEST(Vgb, SingleNumberModeUsesReferenceSpeeds) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kLu);
  VgbOptions opts;
  opts.block = 32;
  opts.model = VgbModel::SingleNumber;
  opts.reference_n = 2000;
  const VgbDistribution d = variable_group_block(models, 2048, opts);
  EXPECT_EQ(std::accumulate(d.group_sizes.begin(), d.group_sizes.end(),
                            std::int64_t{0}),
            d.total_blocks());
}

/// The Variable Group Block construction with one cold core::partition()
/// per group, each compiling the models itself: step for step the loop of
/// variable_group_block (Functional model) without its shared compilation.
VgbDistribution cold_vgb(const core::SpeedList& models, std::int64_t n,
                         const VgbOptions& opts) {
  const std::size_t p = models.size();
  const std::int64_t b = opts.block;
  VgbDistribution dist;
  dist.n = n;
  dist.block = b;
  std::int64_t remaining_cols = n;
  while (remaining_cols > 0) {
    const std::int64_t blocks_remaining = (remaining_cols + b - 1) / b;
    const double m = static_cast<double>(remaining_cols);
    const auto elements = static_cast<std::int64_t>(m * m);
    const core::PartitionResult r =
        core::partition(models, elements, opts.policy);
    std::vector<double> shares(p);
    for (std::size_t i = 0; i < p; ++i)
      shares[i] = static_cast<double>(r.distribution.counts[i]);
    double sum_shares = 0.0;
    double min_share = std::numeric_limits<double>::infinity();
    for (const double x : shares) {
      sum_shares += x;
      if (x >= 1.0) min_share = std::min(min_share, x);
    }
    if (!std::isfinite(min_share)) min_share = std::max(sum_shares, 1.0);
    std::int64_t g =
        std::max<std::int64_t>(1, std::llround(sum_shares / min_share));
    if (g < 2 * static_cast<std::int64_t>(p)) g *= 2;
    g = std::min(g, blocks_remaining);
    std::vector<double> weights(shares);
    for (double& w : weights) w = std::max(w, 1e-6);
    const core::Distribution blocks_of =
        core::partition_single_number(g, weights);
    std::vector<std::size_t> order(p);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t c) {
                       return shares[a] > shares[c];
                     });
    if (g == blocks_remaining) std::reverse(order.begin(), order.end());
    for (const std::size_t i : order)
      for (std::int64_t k = 0; k < blocks_of.counts[i]; ++k)
        dist.block_owner.push_back(static_cast<int>(i));
    dist.group_sizes.push_back(g);
    remaining_cols -= std::min(remaining_cols, g * b);
  }
  return dist;
}

/// A piecewise ensemble in the style of the §3.1 built models.
test::Ensemble piecewise_ensemble() {
  test::Ensemble pw{"piecewise", {}};
  for (int i = 0; i < 4; ++i) {
    const double d = static_cast<double>(i);
    std::vector<core::SpeedPoint> pts{{1e3, 180.0 + 20.0 * d},
                                      {5e5, 160.0 + 20.0 * d},
                                      {2e7, 90.0 + 10.0 * d},
                                      {4e8, 12.0 + d}};
    pw.owned.push_back(
        std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts)));
  }
  return pw;
}

TEST(Vgb, CompileOnceMatchesColdPerGroupSolves) {
  auto cluster = sim::make_table2_cluster();
  const sim::ClusterModels lu = sim::build_cluster_models(cluster, sim::kLu);
  const test::Ensemble mixed = test::mixed_ensemble();
  const test::Ensemble piecewise = piecewise_ensemble();
  const std::vector<std::pair<const char*, core::SpeedList>> model_sets{
      {"table2-lu", lu.list()},
      {"mixed", mixed.list()},
      {"piecewise", piecewise.list()}};
  obs::Counter& warm_hits =
      obs::metrics().counter(obs::names::kPartitionWarmstartHits);
  obs::Counter& warm_stale =
      obs::metrics().counter(obs::names::kPartitionWarmstartStale);
  for (const auto& [name, models] : model_sets) {
    const auto p = static_cast<std::int64_t>(models.size());
    for (const std::int64_t n : {16000LL, 20011LL, 24576LL, 28999LL, 32000LL}) {
      // Bounds that clamp every other processor to 90% of its first-group
      // share: the bounded algorithm's residual rounds then solve sub-lists,
      // which must compile on their own rather than match the guard.
      core::PartitionPolicy bounded;
      bounded.algorithm = core::kAlgorithmBounded;
      const core::PartitionResult first = core::partition(models, n * n);
      for (std::int64_t i = 0; i < p; ++i)
        bounded.bounds.push_back(
            i % 2 == 0 ? first.distribution.counts[i] * 9 / 10 : n * n);
      core::PartitionPolicy modified;
      modified.algorithm = core::kAlgorithmModified;
      // A caller-supplied hint (with a fingerprint no model list has, so
      // every group solve rejects it before solving a line) and an observer
      // policy both switch the group-to-group hint chaining off.
      core::PartitionPolicy hinted;
      hinted.hint.emplace();
      hinted.hint->slope = first.stats.final_slope;
      hinted.hint->n = n * n;
      hinted.hint->fingerprint =
          core::CompiledSpeedList::fingerprint_of(models) ^ 1;
      std::int64_t observed_steps = 0;
      core::PartitionPolicy observed;
      observed.observer = [&](const core::SearchStep&) { ++observed_steps; };
      for (const core::PartitionPolicy& policy :
           {core::PartitionPolicy{}, modified, bounded, hinted, observed}) {
        VgbOptions opts;
        opts.block = 32;
        opts.policy = policy;
        const std::int64_t hits0 = warm_hits.value();
        const std::int64_t stale0 = warm_stale.value();
        const VgbDistribution got = variable_group_block(models, n, opts);
        const std::int64_t hits = warm_hits.value() - hits0;
        const std::int64_t stale = warm_stale.value() - stale0;
        const VgbDistribution want = cold_vgb(models, n, opts);
        EXPECT_EQ(got.group_sizes, want.group_sizes)
            << name << " n=" << n << " " << policy.algorithm;
        EXPECT_EQ(got.block_owner, want.block_owner)
            << name << " n=" << n << " " << policy.algorithm;
        const auto groups = static_cast<std::int64_t>(got.group_sizes.size());
        if (policy.hint) {
          EXPECT_EQ(hits, 0) << name << " n=" << n;
          EXPECT_EQ(stale, groups) << name << " n=" << n;
        } else if (policy.observer) {
          EXPECT_EQ(hits + stale, 0) << name << " n=" << n;
          EXPECT_GT(observed_steps, 0) << name << " n=" << n;
        } else if (policy.algorithm != core::kAlgorithmBounded) {
          // Every group after the first warm-starts from its predecessor.
          // (A bounded solve reports its last residual round's slope, which
          // need not bracket the next group's optimum.)
          EXPECT_EQ(hits, groups - 1) << name << " n=" << n << " "
                                      << policy.algorithm;
        }
      }
    }
  }
}

TEST(LuSimulation, PositiveDeterministicAndCoversAllSteps) {
  auto c1 = sim::make_table2_cluster(31);
  auto c2 = sim::make_table2_cluster(31);
  const auto models = truth_list(c1, sim::kLu);
  VgbOptions opts;
  opts.block = 64;
  const VgbDistribution d = variable_group_block(models, 2048, opts);
  const double t1 = simulate_lu_seconds(c1, sim::kLu, d, true);
  const double t2 = simulate_lu_seconds(c2, sim::kLu, d, true);
  EXPECT_GT(t1, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(LuSimulation, FunctionalBeatsSingleNumberOncePagingMatters) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kLu);
  const std::int64_t n = 20480;
  VgbOptions func;
  func.block = 128;
  VgbOptions single;
  single.block = 128;
  single.model = VgbModel::SingleNumber;
  single.reference_n = 2000;
  const VgbDistribution df = variable_group_block(models, n, func);
  const VgbDistribution ds = variable_group_block(models, n, single);
  const double tf = simulate_lu_seconds(cluster, sim::kLu, df, false);
  const double ts = simulate_lu_seconds(cluster, sim::kLu, ds, false);
  EXPECT_LT(tf, ts);
}

TEST(LuSimulation, MoreWorkTakesLonger) {
  auto cluster = sim::make_table2_cluster();
  const auto models = truth_list(cluster, sim::kLu);
  VgbOptions opts;
  opts.block = 64;
  const VgbDistribution small = variable_group_block(models, 1024, opts);
  const VgbDistribution large = variable_group_block(models, 4096, opts);
  EXPECT_LT(simulate_lu_seconds(cluster, sim::kLu, small, false),
            simulate_lu_seconds(cluster, sim::kLu, large, false));
}

TEST(LuTotalFlops, LeadingOrderCubeTerm) {
  EXPECT_NEAR(lu_total_flops(900), (2.0 / 3.0) * 900.0 * 900.0 * 900.0,
              0.01 * (2.0 / 3.0) * 900.0 * 900.0 * 900.0);
}

}  // namespace
}  // namespace fpm::apps
