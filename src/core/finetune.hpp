// Fine-tuning (paper Figure 9): once the bisection brackets the optimal line
// tightly enough that no integer problem size lies strictly inside any
// processor's bracket, the final integer allocation is chosen from the
// candidate integer points around the two bracketing lines.
//
// The paper describes sorting the 2p candidate execution times and keeping
// the p best. We implement the equivalent, fully specified procedure: start
// from the floor allocation of the steep (small-sum) line and repeatedly
// award one element to the processor whose post-award completion time is
// smallest, until the allocation sums to n. Because execution time
// x/s(x) is non-decreasing in x (a consequence of the shape requirement),
// this greedy yields a makespan-optimal integer completion — verified in the
// test suite against exact_optimum() below.
#pragma once

#include <cstdint>
#include <span>

#include "core/compiled.hpp"
#include "core/partition.hpp"

namespace fpm::core {

/// Completes a fractional bracket into an integer allocation summing to n.
/// `small_sizes` are the intersections with the steep line (sum <= n); they
/// seed the floor allocation. O((p + deficit)·log p). Compiles `speeds` and
/// runs the compiled overload below, uncounted.
Distribution fine_tune(const SpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes);

/// Compiled-model overload: every processor's first post-award time comes
/// from ONE batched speed_all() sweep (the p-wide hot loop of the epilogue,
/// vectorized for the power/exp lanes) instead of p virtual calls. The
/// awards are then selected exactly (nth_element over the (time, index)
/// pairs, O(p) plus one per-entry time per award) rather than popped from
/// a heap; a deficit above p, or a time that is not finite or falls along
/// a processor's chain, runs the award heap instead. Both give the
/// greedy's allocation, and in scalar mode (force_simd_backend("off"))
/// every value, and so the allocation, is bit-identical to the same greedy
/// run over the virtual models. Each speed evaluation adds one to
/// `counters->speed_evals` (pass nullptr to skip).
Distribution fine_tune(const CompiledSpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes,
                       EvalCounters* counters);

/// Greedy makespan-optimal allocation built from scratch (all-zero seed).
/// O(n·log p) — exact but slow; exposed for tests and tiny problems.
Distribution greedy_from_zero(const SpeedList& speeds, std::int64_t n);

/// Globally optimal integer allocation by binary search on the makespan T:
/// cap_i(T) = max x with x/s_i(x) <= T is monotone in T, so the smallest
/// feasible T is found by bisection; the overshoot sum(cap_i(T*)) - n is then
/// trimmed from the processors with the largest completion times.
/// O(p·log(n)·log(1/tol)). Used as the optimality oracle in tests and as a
/// standalone exact solver.
Distribution exact_optimum(const SpeedList& speeds, std::int64_t n);

}  // namespace fpm::core
