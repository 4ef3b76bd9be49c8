#include "core/modified.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_modified(const SpeedList& speeds, std::int64_t n,
                                   const ModifiedBisectionOptions& opts) {
  if (speeds.empty())
    throw std::invalid_argument("partition_modified: no speeds");
  PartitionResult result;
  result.stats.algorithm = kAlgorithmModified;
  if (n <= 0) {
    result.distribution.counts.assign(speeds.size(), 0);
    return result;
  }
  detail::SearchState state(speeds, n, &opts.observer,
                            opts.hint ? &*opts.hint : nullptr);
  // The guaranteed bound: each p steps halve the candidate count of at most
  // p·n lines, so p·log2(p·n) steps suffice; slack covers the bracket setup.
  const double pd = static_cast<double>(speeds.size());
  const int bound = static_cast<int>(
      pd * (std::log2(static_cast<double>(n) * pd) + 4.0)) + 64;
  const int cap = std::min(opts.max_iterations, bound);
  while (!state.converged() && state.iterations() < cap)
    state.step_modified();
  state.finish(result);
  return result;
}

}  // namespace fpm::core
