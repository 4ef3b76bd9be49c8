// Tests for the truly distributed Jacobi iteration: bit-identity with
// serial sweeps across band layouts, empty bands, heterogeneity emulation,
// and argument validation.
#include <gtest/gtest.h>

#include "apps/stencil.hpp"
#include "linalg/kernels.hpp"
#include "mpp/distributed_stencil.hpp"

namespace fpm::mpp {
namespace {

util::MatrixD serial_sweeps(util::MatrixD grid, int iterations) {
  for (int i = 0; i < iterations; ++i) grid = apps::jacobi_sweep(grid);
  return grid;
}

TEST(DistributedStencil, MatchesSerialAcrossLayouts) {
  const util::MatrixD grid = linalg::random_matrix(30, 17, 3);
  for (const auto& rows : {std::vector<std::int64_t>{30},
                           {15, 15},
                           {1, 9, 20},
                           {0, 10, 0, 20},
                           {7, 0, 23}}) {
    const DistributedStencilResult result =
        distributed_jacobi(grid, rows, 5);
    EXPECT_DOUBLE_EQ(util::max_abs_diff(result.grid, serial_sweeps(grid, 5)),
                     0.0)
        << rows.size() << " ranks";
  }
}

TEST(DistributedStencil, ZeroIterationsIsIdentity) {
  const util::MatrixD grid = linalg::random_matrix(12, 12, 4);
  const std::vector<std::int64_t> rows{6, 6};
  const DistributedStencilResult result = distributed_jacobi(grid, rows, 0);
  EXPECT_DOUBLE_EQ(util::max_abs_diff(result.grid, grid), 0.0);
}

TEST(DistributedStencil, ManyIterationsStayIdentical) {
  const util::MatrixD grid = linalg::random_matrix(25, 25, 5);
  const std::vector<std::int64_t> rows{8, 9, 8};
  const DistributedStencilResult result = distributed_jacobi(grid, rows, 40);
  EXPECT_DOUBLE_EQ(
      util::max_abs_diff(result.grid, serial_sweeps(grid, 40)), 0.0);
}

TEST(DistributedStencil, WorkMultiplierSlowsARank) {
  const util::MatrixD grid = linalg::random_matrix(64, 64, 6);
  const std::vector<std::int64_t> rows{32, 32};
  const std::vector<int> mult{1, 10};
  const DistributedStencilResult result =
      distributed_jacobi(grid, rows, 8, mult);
  EXPECT_DOUBLE_EQ(
      util::max_abs_diff(result.grid, serial_sweeps(grid, 8)), 0.0);
  // Work, not wall time: a preempted rank 0 can outlast rank 1.
  EXPECT_GT(result.compute_flops[1], 3 * result.compute_flops[0]);
  for (const double t : result.compute_seconds) EXPECT_GT(t, 0.0);
}

TEST(DistributedStencil, ValidatesArguments) {
  const util::MatrixD grid = linalg::random_matrix(10, 10, 1);
  EXPECT_THROW(distributed_jacobi(grid, std::vector<std::int64_t>{}, 1),
               std::invalid_argument);
  EXPECT_THROW(distributed_jacobi(grid, std::vector<std::int64_t>{5}, 1),
               std::invalid_argument);
  EXPECT_THROW(distributed_jacobi(grid, std::vector<std::int64_t>{10}, -1),
               std::invalid_argument);
  EXPECT_THROW(distributed_jacobi(grid, std::vector<std::int64_t>{10}, 1,
                                  std::vector<int>{0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpm::mpp
