#include "core/combined.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_combined(const SpeedList& speeds, std::int64_t n,
                                   const CombinedOptions& opts) {
  if (speeds.empty())
    throw std::invalid_argument("partition_combined: no speeds");
  PartitionResult result;
  result.stats.algorithm = kAlgorithmCombined;
  if (n <= 0) {
    result.distribution.counts.assign(speeds.size(), 0);
    return result;
  }
  detail::SearchState state(speeds, n, &opts.observer,
                            opts.hint ? &*opts.hint : nullptr);

  // Phase 1: basic bisection while it makes geometric progress.
  std::int64_t window_start_count = state.total_interior();
  int window_used = 0;
  bool switched = false;
  while (!state.converged() && state.iterations() < opts.max_iterations) {
    state.step_basic(opts.bisect_angles);
    if (++window_used >= opts.stall_window) {
      const std::int64_t now = state.total_interior();
      if (now * 2 > window_start_count) {
        switched = true;  // stalled: candidate count failed to halve
        break;
      }
      window_start_count = now;
      window_used = 0;
    }
  }

  // Phase 2: shape-insensitive modified steps with the guaranteed bound.
  if (switched) {
    const double pd = static_cast<double>(speeds.size());
    const int bound =
        state.iterations() +
        static_cast<int>(pd * (std::log2(static_cast<double>(n) * pd) + 4.0)) +
        64;
    const int cap = std::min(opts.max_iterations, bound);
    while (!state.converged() && state.iterations() < cap)
      state.step_modified();
  }

  result.stats.switched_to_modified = switched;
  state.finish(result);
  return result;
}

}  // namespace fpm::core
