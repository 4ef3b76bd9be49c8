#include "core/bisection.hpp"

#include <cmath>
#include <stdexcept>

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
                                const BasicBisectionOptions& opts) {
  if (speeds.empty())
    throw std::invalid_argument("partition_basic: no speeds");
  PartitionResult result;
  result.stats.algorithm = kAlgorithmBasic;
  if (n <= 0) {
    result.distribution.counts.assign(speeds.size(), 0);
    return result;
  }
  detail::SearchState state(speeds, n, &opts.observer,
                            opts.hint ? &*opts.hint : nullptr);
  while (!state.converged() && state.iterations() < opts.max_iterations)
    state.step_basic(opts.bisect_angles);
  state.finish(result);
  return result;
}

}  // namespace fpm::core
