// Tests for the truly distributed LU factorization: bit-identity with the
// serial factorization across ownership maps, block sizes and rank counts;
// VGB-driven ownership; singularity handling; heterogeneity emulation.
#include <gtest/gtest.h>

#include "apps/vgb.hpp"
#include "linalg/kernels.hpp"
#include "mpp/distributed_lu.hpp"
#include "simcluster/presets.hpp"

namespace fpm::mpp {
namespace {

void expect_matches_serial(const util::MatrixD& a, std::size_t block,
                           std::span<const int> owners, int ranks,
                           const std::string& context) {
  const DistributedLuResult dist = distributed_lu(a, block, owners, ranks);
  ASSERT_TRUE(dist.nonsingular) << context;
  util::MatrixD serial = a;
  std::vector<std::size_t> pivots;
  ASSERT_TRUE(linalg::lu_factor(serial, pivots)) << context;
  EXPECT_EQ(dist.pivots, pivots) << context;
  EXPECT_DOUBLE_EQ(util::max_abs_diff(dist.lu, serial), 0.0) << context;
}

TEST(DistributedLu, SingleRankMatchesSerial) {
  const util::MatrixD a = linalg::random_matrix(24, 24, 1);
  const std::vector<int> owners(3, 0);  // 24/8 = 3 blocks, all on rank 0
  expect_matches_serial(a, 8, owners, 1, "single rank");
}

TEST(DistributedLu, RoundRobinOwnershipMatchesSerial) {
  for (const int ranks : {2, 3, 4}) {
    for (const std::size_t block : {4u, 8u, 16u}) {
      const std::size_t n = 48;
      const util::MatrixD a = linalg::random_matrix(n, n, 100 + ranks);
      const std::size_t nb = (n + block - 1) / block;
      std::vector<int> owners(nb);
      for (std::size_t i = 0; i < nb; ++i)
        owners[i] = static_cast<int>(i % static_cast<std::size_t>(ranks));
      expect_matches_serial(a, block, owners, ranks,
                            "rr ranks=" + std::to_string(ranks) +
                                " b=" + std::to_string(block));
    }
  }
}

TEST(DistributedLu, RaggedFinalBlockMatchesSerial) {
  const util::MatrixD a = linalg::random_matrix(37, 37, 5);  // 37 = 4*8 + 5
  const std::vector<int> owners{1, 0, 2, 0, 1};
  expect_matches_serial(a, 8, owners, 3, "ragged");
}

TEST(DistributedLu, VgbOwnershipMatchesSerial) {
  // The production pairing: owners from the Variable Group Block
  // distribution of the simulated cluster, execution on the mpp runtime.
  auto cluster = sim::make_table2_cluster();
  core::SpeedList models;
  for (std::size_t i = 0; i < 4; ++i)
    models.push_back(&cluster.ground_truth(i, sim::kLu));
  apps::VgbOptions opts;
  opts.block = 8;
  const std::int64_t n = 64;
  const apps::VgbDistribution vgb =
      apps::variable_group_block(models, n, opts);
  const util::MatrixD a = linalg::random_matrix(
      static_cast<std::size_t>(n), static_cast<std::size_t>(n), 9);
  expect_matches_serial(a, 8, vgb.block_owner, 4, "vgb");
}

TEST(DistributedLu, DetectsSingularity) {
  util::MatrixD a(12, 12);  // column 5 entirely zero
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j)
      a(i, j) = (j == 5) ? 0.0 : 1.0 + double(i * 12 + j) * ((i + j) % 3);
  const std::vector<int> owners{0, 1, 0};
  const DistributedLuResult dist = distributed_lu(a, 4, owners, 2);
  EXPECT_FALSE(dist.nonsingular);
}

TEST(DistributedLu, WorkMultiplierSlowsARankWithoutChangingResults) {
  const util::MatrixD a = linalg::random_matrix(40, 40, 12);
  const std::vector<int> owners{0, 1, 0, 1, 0};
  const std::vector<int> mult{1, 6};
  const DistributedLuResult dist = distributed_lu(a, 8, owners, 2, mult);
  ASSERT_TRUE(dist.nonsingular);
  util::MatrixD serial = a;
  std::vector<std::size_t> pivots;
  linalg::lu_factor(serial, pivots);
  EXPECT_DOUBLE_EQ(util::max_abs_diff(dist.lu, serial), 0.0);
  // Work, not wall time: a preempted rank 0 can outlast rank 1.
  EXPECT_GT(dist.compute_flops[1], dist.compute_flops[0]);
  for (const double t : dist.compute_seconds) EXPECT_GT(t, 0.0);
}

TEST(DistributedLu, ValidatesArguments) {
  const util::MatrixD sq = linalg::random_matrix(16, 16, 1);
  const util::MatrixD rect = linalg::random_matrix(16, 8, 1);
  const std::vector<int> owners{0, 0};
  EXPECT_THROW(distributed_lu(rect, 8, owners, 1), std::invalid_argument);
  EXPECT_THROW(distributed_lu(sq, 0, owners, 1), std::invalid_argument);
  EXPECT_THROW(distributed_lu(sq, 8, std::vector<int>{0}, 1),
               std::invalid_argument);
  EXPECT_THROW(distributed_lu(sq, 8, std::vector<int>{0, 5}, 2),
               std::invalid_argument);
  EXPECT_THROW(distributed_lu(sq, 8, owners, 1, std::vector<int>{0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpm::mpp
