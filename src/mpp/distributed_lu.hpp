// Truly distributed right-looking block LU with partial pivoting on the
// mpp runtime, scheduled by a column-block ownership map (typically the
// Variable Group Block distribution): the owner of block k factorizes the
// panel, broadcasts the pivot sequence and the packed panel, and every
// rank applies the row swaps and updates its own trailing column blocks.
//
// The computation is numerically *identical* to the serial blocked
// factorization (and hence to the unblocked one): the same pivots are
// chosen and the same updates applied, merely by different owners.
#pragma once

#include <cstdint>
#include <vector>

#include "mpp/runtime.hpp"
#include "util/matrix.hpp"

namespace fpm::mpp {

struct DistributedLuResult {
  util::MatrixD lu;                   ///< packed L\U factors (rank 0's view)
  std::vector<std::size_t> pivots;    ///< row swaps, as linalg::lu_factor
  bool nonsingular = true;
  std::vector<double> compute_seconds;  ///< per-rank update-kernel time
  /// Per-rank update-kernel flops (2 per multiply-subtract), repeats
  /// included.
  std::vector<std::int64_t> compute_flops;
};

/// Factorizes the square matrix `a` with column blocks of size `block`
/// distributed per `block_owner` (one entry per column block; owners in
/// [0, ranks)). `ranks` threads are spawned; `work_multiplier` emulates
/// heterogeneity as in distributed_mm_abt.
DistributedLuResult distributed_lu(const util::MatrixD& a, std::size_t block,
                                   std::span<const int> block_owner,
                                   int ranks,
                                   std::span<const int> work_multiplier = {});

}  // namespace fpm::mpp
