#include "core/modified.hpp"

#include <algorithm>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_modified(const SpeedList& speeds, std::int64_t n,
                                   const PartitionPolicy& policy) {
  return partitioner_registry().run(kAlgorithmModified, speeds, n, policy);
}

PartitionResult detail::modified_from(Bracket start,
                                      const CompiledSpeedList& speeds,
                                      std::int64_t n,
                                      const PartitionPolicy& policy) {
  return run_search(
      kAlgorithmModified, start, speeds, n, policy, [&](SearchState& state) {
        const int cap =
            std::min(policy.max_iterations.value_or(kGuaranteedIterationCap),
                     guaranteed_steps(speeds.size(), n));
        while (!state.converged() && state.iterations() < cap)
          state.step_modified();
      });
}

}  // namespace fpm::core
