#include "core/combined.hpp"

#include <algorithm>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_combined(const SpeedList& speeds, std::int64_t n,
                                   const PartitionPolicy& policy) {
  return partitioner_registry().run(kAlgorithmCombined, speeds, n, policy);
}

PartitionResult detail::combined_from(Bracket start,
                                      const CompiledSpeedList& speeds,
                                      std::int64_t n,
                                      const PartitionPolicy& policy) {
  const int max_iterations =
      policy.max_iterations.value_or(kGuaranteedIterationCap);
  bool switched = false;
  PartitionResult result = run_search(
      kAlgorithmCombined, start, speeds, n, policy, [&](SearchState& state) {
        // Phase 1: basic bisection while it makes geometric progress.
        std::int64_t window_start_count = state.total_interior();
        int window_used = 0;
        while (!state.converged() && state.iterations() < max_iterations) {
          state.step_basic(policy.bisect_angles);
          if (++window_used >= policy.stall_window) {
            const std::int64_t now = state.total_interior();
            if (now * 2 > window_start_count) {
              switched = true;  // stalled: candidate count failed to halve
              break;
            }
            window_start_count = now;
            window_used = 0;
          }
        }

        // Phase 2: shape-insensitive modified steps with the guaranteed
        // bound.
        if (switched) {
          const int cap = std::min(
              max_iterations,
              state.iterations() + guaranteed_steps(speeds.size(), n));
          while (!state.converged() && state.iterations() < cap)
            state.step_modified();
        }
      });
  result.stats.switched_to_modified = switched;
  return result;
}

}  // namespace fpm::core
