#include "core/bisection.hpp"

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_basic(const SpeedList& speeds, std::int64_t n,
                                const PartitionPolicy& policy) {
  return partitioner_registry().run(kAlgorithmBasic, speeds, n, policy);
}

PartitionResult detail::basic_from(Bracket start,
                                   const CompiledSpeedList& speeds,
                                   std::int64_t n,
                                   const PartitionPolicy& policy) {
  const int cap = policy.max_iterations.value_or(kSearchIterationCap);
  return run_search(
      kAlgorithmBasic, start, speeds, n, policy, [&](SearchState& state) {
        while (!state.converged() && state.iterations() < cap)
          state.step_basic(policy.bisect_angles);
      });
}

}  // namespace fpm::core
