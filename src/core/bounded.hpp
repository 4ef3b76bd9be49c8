// The general partitioning problem of Lastovetsky & Reddy's classification
// paper ([20] in the reproduced paper, quoted in its §1): a set of n
// elements with weights w_i, p processors with speed functions s_i and upper
// bounds b_i on the number of elements each can store. The IPDPS'04 paper
// solves the unit-weight unbounded variant; these extensions cover the rest
// of the formulation.
#pragma once

#include <cstdint>
#include <span>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// Partitions n unit-weight elements subject to per-processor capacity
/// bounds: counts[i] <= bounds[i] and sum == n, minimizing the makespan.
/// The bounds are policy.bounds; when empty, each curve's capacity
/// ceil(max_size()) (the paper's point b).
///
/// Strategy: solve the unbounded problem (combined algorithm); clamp every
/// processor that exceeded its bound to the bound; re-solve the residual
/// problem over the remaining processors. Each round fixes at least one
/// processor, so at most p rounds run. Every round's combined solve gets
/// the policy's knobs and observer; only the first gets its hint. Throws
/// std::invalid_argument when sum(bounds) < n (infeasible), a bound is
/// negative, or the bound count differs from the processor count.
PartitionResult partition_bounded(const SpeedList& speeds, std::int64_t n,
                                  const PartitionPolicy& policy = {});

/// Exact bounded integer optimum via makespan bisection with capped
/// capacities — the oracle used to test partition_bounded.
Distribution exact_optimum_bounded(const SpeedList& speeds, std::int64_t n,
                                   std::span<const std::int64_t> bounds);

/// Contiguous weighted partitioning: elements 0..w.size()-1 (in order, e.g.
/// matrix rows of unequal density) are split into p contiguous ranges, one
/// per processor in the given order. Processor i's execution time for a
/// range of c elements with weight sum W is W / s_i(c).
///
/// Requires strictly positive weights and speed functions whose range time
/// W(prefix)/s(count(prefix)) is non-decreasing in the prefix length (always
/// holds for non-increasing speed functions; holds for all shapes when
/// weights are uniform). Returns the boundary indices: processor i receives
/// elements [result[i], result[i+1]).
std::vector<std::size_t> partition_weighted_contiguous(
    const SpeedList& speeds, std::span<const double> weights);

/// Makespan of a contiguous weighted partition (same conventions).
double weighted_makespan(const SpeedList& speeds,
                         std::span<const double> weights,
                         std::span<const std::size_t> boundaries);

}  // namespace fpm::core
