// Hierarchical (two-level) partitioning — for the "global networks" and
// grid settings the paper's introduction motivates: processors come in
// groups (sites, clusters), work is first split across groups and then
// within each group.
//
// The key construction is the *aggregate speed function* of a group: the
// speed the group exhibits as a single virtual processor when its members
// are loaded optimally. In the continuous relaxation this is exact and
// closed under the model:
//
//   For a group with members s_1..s_k, the optimal line of slope c loads
//   x_i(c) with common completion time t = 1/c, handling
//   N(c) = Σ x_i(c) elements. So the aggregate time for x elements is
//   t_G(x) = 1/c(x) with c(x) the unique slope where N(c) = x, and the
//   aggregate speed s_G(x) = x·c(x). Since N is strictly decreasing in c,
//   t_G is strictly increasing, i.e. s_G(x)/x = c(x) is strictly
//   decreasing — the aggregate satisfies the shape requirement, so groups
//   compose and the hierarchy can be arbitrarily deep.
//
// Consequence (tested): partitioning across exact aggregates and then
// within groups reproduces the flat optimal distribution up to integer
// rounding, while the search cost drops from one size-p problem to one
// size-#groups problem plus independent small ones.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// The aggregate speed function of a processor group (see file comment).
/// Holds a non-owning copy of the member list; members must outlive it.
/// Each speed()/intersect() evaluation solves the group's optimal line by
/// bisection — O(k·log) per call with k members.
class AggregateSpeed final : public SpeedFunction {
 public:
  explicit AggregateSpeed(SpeedList members);

  /// s_G(x) = x · c(x): the group's throughput when handling x elements
  /// optimally.
  double speed(double x) const override;
  double max_size() const override;

  /// For the aggregate the intersection has a direct form: the line of
  /// slope c loads the group with N(c) elements, so intersect(c) = N(c).
  double intersect(double slope) const override;

  std::size_t members() const noexcept { return members_.size(); }

 private:
  /// The slope of the group's optimal line when handling x elements.
  double slope_for(double x) const;

  SpeedList members_;
};

/// A two-level distribution: counts per group and per member within each
/// group.
struct HierarchicalResult {
  std::vector<std::int64_t> group_counts;            ///< per group, sums to n
  std::vector<Distribution> within;                  ///< per group
  /// The top-level search's stats, with the work counters (speed_evals,
  /// intersect_solves, their search-phase portions, ...) summed over every
  /// inner solve too.
  PartitionStats stats;

  /// Flattened member counts in group-major order.
  std::vector<std::int64_t> flatten() const;
};

/// Partitions n elements over groups of processors: top level across the
/// aggregates, second level within each group, both with the algorithm the
/// policy selects (default: combined). `groups[g]` lists the members of
/// group g (non-owning; must be non-empty). Requires at least one group.
/// Policies with per-processor state (the bounded algorithm's bounds) are
/// not meaningful across the two levels and are rejected.
HierarchicalResult partition_hierarchical(
    const std::vector<SpeedList>& groups, std::int64_t n,
    const PartitionPolicy& policy = {});

}  // namespace fpm::core
