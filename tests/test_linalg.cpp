// Tests for the serial linear-algebra kernels: multiplication variants
// against each other and hand values, LU factorization (unblocked and
// blocked) against reconstruction and solves, array ops, and flop counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/block_lu.hpp"
#include "linalg/kernels.hpp"
#include "linalg/real_source.hpp"

namespace fpm::linalg {
namespace {

TEST(MatmulNaive, HandComputedProduct) {
  MatrixD a(2, 2), b(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const MatrixD c = matmul_naive(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatmulNaive, RejectsMismatchedShapes) {
  EXPECT_THROW(matmul_naive(MatrixD(2, 3), MatrixD(2, 3)),
               std::invalid_argument);
}

TEST(MatmulBlocked, MatchesNaiveOnRandomRectangles) {
  for (const auto& [m, k, n] :
       {std::tuple{5, 7, 3}, {48, 48, 48}, {50, 33, 65}, {1, 100, 1}}) {
    const MatrixD a = random_matrix(m, k, 1);
    const MatrixD b = random_matrix(k, n, 2);
    const MatrixD c1 = matmul_naive(a, b);
    const MatrixD c2 = matmul_blocked(a, b, 16);
    EXPECT_LT(util::max_abs_diff(c1, c2), 1e-10) << m << "x" << k << "x" << n;
  }
}

TEST(MatmulBlocked, RejectsZeroBlock) {
  EXPECT_THROW(matmul_blocked(MatrixD(2, 2), MatrixD(2, 2), 0),
               std::invalid_argument);
}

TEST(MatmulAbt, EqualsNaiveAgainstTransposedB) {
  const MatrixD a = random_matrix(20, 30, 3);
  const MatrixD b = random_matrix(15, 30, 4);  // B is n x k; A·Bᵀ is 20 x 15
  const MatrixD c1 = matmul_abt_naive(a, b);
  const MatrixD c2 = matmul_naive(a, b.transposed());
  EXPECT_LT(util::max_abs_diff(c1, c2), 1e-12);
}

TEST(LuFactor, ReconstructsPA) {
  for (const std::size_t n : {1u, 2u, 5u, 17u, 40u}) {
    MatrixD a = random_matrix(n, n, 100 + n);
    const MatrixD original = a;
    std::vector<std::size_t> pivots;
    ASSERT_TRUE(lu_factor(a, pivots));
    const MatrixD lu_prod = lu_reconstruct(a);
    const MatrixD pa = apply_pivots(original, pivots);
    EXPECT_LT(util::max_abs_diff(lu_prod, pa), 1e-9) << "n=" << n;
  }
}

TEST(LuFactor, RectangularTallAndWide) {
  for (const auto& [m, n] : {std::pair{12u, 5u}, {5u, 12u}}) {
    MatrixD a = random_matrix(m, n, 55);
    const MatrixD original = a;
    std::vector<std::size_t> pivots;
    ASSERT_TRUE(lu_factor(a, pivots));
    EXPECT_LT(util::max_abs_diff(lu_reconstruct(a),
                                 apply_pivots(original, pivots)),
              1e-9);
  }
}

TEST(LuFactor, DetectsExactSingularity) {
  MatrixD a(3, 3);  // an all-zero column
  a(0, 0) = 1.0;
  a(1, 1) = 0.0;
  a(2, 2) = 1.0;
  std::vector<std::size_t> pivots;
  EXPECT_FALSE(lu_factor(a, pivots));
}

TEST(LuSolve, RecoversKnownSolution) {
  const std::size_t n = 25;
  MatrixD a = random_matrix(n, n, 77);
  const MatrixD original = a;
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(double(i) + 1.0);
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b[i] += original(i, j) * x_true[j];
  std::vector<std::size_t> pivots;
  ASSERT_TRUE(lu_factor(a, pivots));
  const std::vector<double> x = lu_solve(a, pivots, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(LuSolve, RejectsShapeMismatch) {
  MatrixD a = random_matrix(4, 4, 1);
  std::vector<std::size_t> pivots;
  ASSERT_TRUE(lu_factor(a, pivots));
  EXPECT_THROW(lu_solve(a, pivots, std::vector<double>(3)),
               std::invalid_argument);
}

TEST(BlockLu, BitIdenticalToUnblocked) {
  for (const std::size_t n : {1u, 7u, 16u, 33u, 64u}) {
    for (const std::size_t b : {1u, 4u, 8u, 16u}) {
      MatrixD a1 = random_matrix(n, n, 300 + n);
      MatrixD a2 = a1;
      std::vector<std::size_t> p1, p2;
      ASSERT_TRUE(lu_factor(a1, p1));
      ASSERT_TRUE(block_lu_factor(a2, b, p2));
      EXPECT_EQ(p1, p2) << "n=" << n << " b=" << b;
      EXPECT_DOUBLE_EQ(util::max_abs_diff(a1, a2), 0.0)
          << "n=" << n << " b=" << b;
    }
  }
}

TEST(BlockLu, RectangularMatchesUnblocked) {
  MatrixD a1 = random_matrix(30, 18, 9);
  MatrixD a2 = a1;
  std::vector<std::size_t> p1, p2;
  ASSERT_TRUE(lu_factor(a1, p1));
  ASSERT_TRUE(block_lu_factor(a2, 8, p2));
  EXPECT_EQ(p1, p2);
  EXPECT_LT(util::max_abs_diff(a1, a2), 1e-12);
}

TEST(BlockLu, RejectsZeroBlock) {
  MatrixD a = random_matrix(4, 4, 1);
  std::vector<std::size_t> pivots;
  EXPECT_THROW(block_lu_factor(a, 0, pivots), std::invalid_argument);
}

TEST(ArrayOps, DeterministicChecksum) {
  std::vector<double> d1(100, 1.0), d2(100, 1.0);
  EXPECT_DOUBLE_EQ(array_ops(d1, 3), array_ops(d2, 3));
  EXPECT_NE(array_ops(d1, 1), 0.0);
}

TEST(Flops, CountsMatchConventions) {
  EXPECT_DOUBLE_EQ(mm_flops(10, 20, 30), 12000.0);
  // LU of an n x n matrix ~ (2/3)n³ to leading order.
  const double n = 400.0;
  EXPECT_NEAR(lu_flops(400, 400), (2.0 / 3.0) * n * n * n,
              0.02 * (2.0 / 3.0) * n * n * n);
  EXPECT_DOUBLE_EQ(array_ops_flops(1000, 4), 8000.0);
}

TEST(RandomMatrix, DeterministicAndInRange) {
  const MatrixD a = random_matrix(6, 6, 42);
  const MatrixD b = random_matrix(6, 6, 42);
  EXPECT_DOUBLE_EQ(util::max_abs_diff(a, b), 0.0);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_LE(std::abs(a(i, j)), 1.0);
      }
    }
}

TEST(RealSource, MeasuresPositiveSpeeds) {
  RealKernelSource mm(Kernel::MatMulNaive);
  EXPECT_GT(mm.measure(3.0 * 64 * 64), 0.0);
  RealKernelSource lu(Kernel::LuFactor);
  EXPECT_GT(lu.measure(64.0 * 64.0), 0.0);
  RealKernelSource arr(Kernel::ArrayOps);
  EXPECT_GT(arr.measure(10000.0), 0.0);
  EXPECT_EQ(mm.name(), "MatrixMult");
  EXPECT_EQ(lu.name(), "LU");
}

TEST(RealSource, BlockedBeatsNaiveOnLargeEnoughMatrices) {
  // The two kernels embody the paper's efficient/inefficient dichotomy; on
  // modern hosts with large caches they can tie at 200x200, and shared CI
  // wall clocks are noisy. Keep this as a loose regression guard (blocked
  // must not be *wildly* slower) with best-of-five sampling; the real
  // cache-behaviour study lives in bench/kernels_host.
  double naive = 0.0, blocked = 0.0;
  for (int i = 0; i < 5; ++i) {
    naive = std::max(naive, measure_mm_mflops(200, 200, /*blocked=*/false));
    blocked = std::max(blocked, measure_mm_mflops(200, 200, /*blocked=*/true));
  }
  EXPECT_GT(blocked, naive * 0.3);
}

}  // namespace
}  // namespace fpm::linalg
