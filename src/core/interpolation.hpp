// An interpolation-based line search — a candidate for the paper's open
// challenge (§2): "An ideal bisection algorithm would be of the complexity
// O(p·log₂n), reducing at each step the space of solutions by 50% and
// being insensitive to the shape of the graphs. The design of such an
// algorithm is still a challenge."
//
// Idea: the total-size function N(c) = Σ x_i(c) is strictly decreasing and,
// for the observed curve families, close to a power law in the slope over
// wide ranges. Instead of bisecting the slope interval, step to the slope
// where the secant of log N against log c through the last two solved
// lines predicts N = n — the same log-log secant the secant bracket start
// (Bracket::Secant, this algorithm's start) runs before the search, here
// run to convergence. Each step is clamped into the middle of the bracket,
// `safeguard_margin` of its log-width away from either end: a root
// predicted at an end then puts the line just across it, so the bracket
// closes around the root from both sides instead of stagnating on one. A
// step that fails to halve the bracket is followed by one log-space
// bisection, which bounds the worst case by 2x the basic algorithm while
// the secant typically converges superlinearly — including on the
// exponential family, where log N is near-*linear* in log c and plain
// bisection degrades to O(n) steps.
//
// This does not settle the theoretical challenge (no O(p·log n) worst-case
// proof), but it is measurably shape-insensitive in practice — see
// bench/ablation_algorithms.
//
// Reads PartitionPolicy::safeguard_margin, max_iterations (default
// kSearchIterationCap), observer and hint.
#pragma once

#include <cstdint>

#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core {

/// Partitions n elements with the safeguarded log-log secant search
/// followed by the standard fine-tuning.
PartitionResult partition_interpolation(const SpeedList& speeds,
                                        std::int64_t n,
                                        const PartitionPolicy& policy = {});

}  // namespace fpm::core
