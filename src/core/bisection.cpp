#include "core/bisection.hpp"

#include <cmath>

#include "core/detail/search_state.hpp"

namespace fpm::core {

bool bracket_converged(std::span<const double> small,
                       std::span<const double> large) {
  for (std::size_t i = 0; i < small.size(); ++i) {
    double k = std::floor(large[i]);
    if (k == large[i]) k -= 1.0;
    if (k > small[i]) return false;
  }
  return true;
}

PartitionResult partition_basic(const SpeedList& speeds, std::int64_t n,
                                const PartitionPolicy& policy) {
  const int cap = policy.max_iterations.value_or(kSearchIterationCap);
  return detail::run_search(
      kAlgorithmBasic, speeds, n, policy, [&](detail::SearchState& state) {
        while (!state.converged() && state.iterations() < cap)
          state.step_basic(policy.bisect_angles);
      });
}

}  // namespace fpm::core
