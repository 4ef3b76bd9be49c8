// The Variable Group Block (VGB) distribution (paper §3.1, Figure 17): a
// static column-block distribution for LU factorization on heterogeneous
// processors. The matrix is vertically partitioned into groups of column
// blocks; the size of each group and the per-processor share inside it are
// derived from the *functional* speeds at the problem size remaining when
// the factorization reaches that group — so the distribution keeps balancing
// the trailing updates as the matrix shrinks, including across paging
// thresholds.
//
// Group construction (paper's steps, with our reading of the g₁ formula):
//   1. Partition the remaining m² elements optimally; obtain (x_i).
//   2. g = round(sum(x_i) / min(x_i)) blocks, so the slowest processor gets
//      about one block; if g/p < 2 the group is doubled to guarantee enough
//      blocks per group.
//   3. Distribute the g blocks in proportion to the x_i; inside a group the
//      fastest processors come first.
//   4. The last group is reordered to start with the *slowest* processors,
//      keeping the fastest processor last for load balance.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::apps {

/// Which model drives the group computation.
enum class VgbModel {
  Functional,    ///< speeds re-evaluated at each group's remaining size
  SingleNumber,  ///< constant speeds at a reference size (Group Block)
};

struct VgbOptions {
  std::int64_t block = 32;  ///< column block size b
  VgbModel model = VgbModel::Functional;
  /// Reference matrix size for VgbModel::SingleNumber: constant speeds are
  /// the model values at reference_n² elements.
  std::int64_t reference_n = 2000;
  /// Partitioner for the per-group optimal-share solve under
  /// VgbModel::Functional (default: combined); SingleNumber ignores it.
  /// Without a hint or an observer here, each group's solve warm-starts
  /// from the previous group's (same distribution, fewer line solves); a
  /// hint given here is used as is for every group.
  core::PartitionPolicy policy{};
};

/// The computed distribution: which processor owns every column block.
struct VgbDistribution {
  std::int64_t n = 0;      ///< matrix size
  std::int64_t block = 0;  ///< block size b
  std::vector<std::int64_t> group_sizes;  ///< blocks per group, sums to the total
  std::vector<int> block_owner;           ///< owner of block j, one per block

  std::int64_t total_blocks() const noexcept {
    return static_cast<std::int64_t>(block_owner.size());
  }
  /// Number of column blocks with index >= first_block owned by `proc`.
  std::int64_t owned_blocks_from(int proc, std::int64_t first_block) const;
};

/// Computes the Variable Group Block distribution of an n x n matrix over
/// the given models (speed argument in elements). Requires n >= 1 and
/// 1 <= block.
VgbDistribution variable_group_block(const core::SpeedList& models,
                                     std::int64_t n, const VgbOptions& opts);

}  // namespace fpm::apps
