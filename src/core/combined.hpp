// The combined algorithm (paper §2, Figure 15): for most real-life curve
// families the optimal line lies in a region of polynomial slopes where the
// basic bisection converges fastest; for near-horizontal curve regions (very
// large problem sizes) the modified algorithm's shape-insensitive guarantee
// wins. The combined algorithm runs basic bisection and monitors how fast
// the candidate-solution count shrinks; when the shrink rate falls below
// what a well-behaved search would achieve, it switches to the modified
// strategy for the remainder of the search.
//
// Reads PartitionPolicy::stall_window, bisect_angles, max_iterations
// (default kGuaranteedIterationCap), observer and hint.
#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// Partitions n elements with the combined basic/modified strategy followed
/// by fine-tuning. Requires a non-empty speed list.
PartitionResult partition_combined(const SpeedList& speeds, std::int64_t n,
                                   const PartitionPolicy& policy = {});

}  // namespace fpm::core
