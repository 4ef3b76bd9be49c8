// The modified partitioning algorithm (paper §2, Figures 10-12): instead of
// bisecting the angular region, bisect the *space of solutions* — the set of
// lines through the origin passing through an integer-size point of some
// speed graph. Each step selects the processor whose graph carries the most
// remaining candidate lines and halves that processor's candidates by
// drawing the line through the midpoint of its size bracket. After p steps
// the total candidate count is at least halved, giving the guaranteed
// O(p²·log₂ n) complexity regardless of the curve shapes.
//
// Reads PartitionPolicy::max_iterations (default kGuaranteedIterationCap;
// the p·log₂(p·n) bound plus slack is applied on top of it), observer and
// hint.
#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// Partitions n elements with the modified (space-of-solutions) algorithm
/// followed by fine-tuning. Requires a non-empty speed list.
PartitionResult partition_modified(const SpeedList& speeds, std::int64_t n,
                                   const PartitionPolicy& policy = {});

}  // namespace fpm::core
