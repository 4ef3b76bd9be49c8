#include "core/interpolation.hpp"

#include <algorithm>
#include <cmath>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_interpolation(const SpeedList& speeds,
                                        std::int64_t n,
                                        const PartitionPolicy& policy) {
  return partitioner_registry().run(kAlgorithmInterpolation, speeds, n,
                                    policy);
}

PartitionResult detail::interpolation_from(Bracket start,
                                           const CompiledSpeedList& speeds,
                                           std::int64_t n,
                                           const PartitionPolicy& policy) {
  const int max_iterations =
      policy.max_iterations.value_or(kSearchIterationCap);
  return run_search(
      kAlgorithmInterpolation, start, speeds, n, policy,
      [&](SearchState& state) {
        bool bisect = false;
        while (!state.converged() && state.iterations() < max_iterations) {
          const double lc_lo = std::log(state.lo_slope());
          const double lc_hi = std::log(state.hi_slope());
          double lc = 0.5 * (lc_lo + lc_hi);  // log-space bisection
          if (!bisect) {
            // The secant step, clamped into the safeguard band: a root
            // predicted at the bracket's edge puts the line just across
            // it, which closes the bracket around the root from both
            // sides. At a margin of 0.5 the band's ends can cross by an
            // ulp of rounding, so the upper end is kept at or above the
            // lower one.
            const double margin = policy.safeguard_margin * (lc_hi - lc_lo);
            const double band_lo = lc_lo + margin;
            const double band_hi = std::max(band_lo, lc_hi - margin);
            const double candidate = std::log(state.secant_slope());
            if (std::isfinite(candidate))
              lc = std::clamp(candidate, band_lo, band_hi);
          }
          state.step_custom(std::exp(lc));
          // A secant step that failed to halve the bracket is followed by
          // a bisection, so the bracket halves at least every two steps.
          bisect = !bisect && std::log(state.hi_slope()) -
                                      std::log(state.lo_slope()) >
                                  0.5 * (lc_hi - lc_lo);
        }
      });
}

}  // namespace fpm::core
