// Truly distributed Jacobi iteration on the mpp runtime: each rank owns a
// band of grid rows (sized by the partitioner) and exchanges one halo row
// with each neighbour per iteration — the real message pattern the stencil
// simulation in apps/stencil only costs out.
#pragma once

#include <cstdint>
#include <vector>

#include "mpp/runtime.hpp"
#include "util/matrix.hpp"

namespace fpm::mpp {

struct DistributedStencilResult {
  util::MatrixD grid;                   ///< final grid (rank 0's view)
  std::vector<double> compute_seconds;  ///< per-rank sweep-kernel time
  /// Per-rank sweep-kernel flops (4 per updated cell), repeats included.
  std::vector<std::int64_t> compute_flops;
};

/// Runs `iterations` Jacobi sweeps over `grid` with `rows[i]` rows owned by
/// rank i (must sum to grid.rows(); empty bands allowed). Boundary rows and
/// columns hold fixed values, exactly as apps::jacobi_sweep. The result is
/// bit-identical to `iterations` serial sweeps. `work_multiplier` emulates
/// heterogeneity as in the other distributed kernels.
DistributedStencilResult distributed_jacobi(
    const util::MatrixD& grid, std::span<const std::int64_t> rows,
    int iterations, std::span<const int> work_multiplier = {});

}  // namespace fpm::mpp
