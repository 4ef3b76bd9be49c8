#include "core/modified.hpp"

#include <algorithm>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_modified(const SpeedList& speeds, std::int64_t n,
                                   const PartitionPolicy& policy) {
  return detail::run_search(
      kAlgorithmModified, speeds, n, policy, [&](detail::SearchState& state) {
        const int cap =
            std::min(policy.max_iterations.value_or(kGuaranteedIterationCap),
                     detail::guaranteed_steps(speeds.size(), n));
        while (!state.converged() && state.iterations() < cap)
          state.step_modified();
      });
}

}  // namespace fpm::core
