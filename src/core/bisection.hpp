// The basic (simplest) partitioning algorithm (paper §2, Figures 7-8):
// maintain two lines through the origin bracketing the optimal one and
// bisect the angular region between them. Each step costs O(p) intersection
// solves; when the optimal slope decays polynomially in n the algorithm
// needs O(log n) steps (total O(p·log n)), but an exponentially decaying
// optimal slope degrades it to O(n) steps — the motivation for the modified
// algorithm.
//
// Reads PartitionPolicy::bisect_angles, max_iterations (default
// kSearchIterationCap), observer and hint.
#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// Partitions n elements over speeds.size() processors with the basic
/// angle-bisection algorithm followed by fine-tuning.
/// Requires n >= 0 and a non-empty speed list.
PartitionResult partition_basic(const SpeedList& speeds, std::int64_t n,
                                const PartitionPolicy& policy = {});

}  // namespace fpm::core
