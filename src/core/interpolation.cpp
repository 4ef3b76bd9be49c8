#include "core/interpolation.hpp"

#include <cmath>
#include <numeric>

#include "core/detail/search_state.hpp"

namespace fpm::core {

PartitionResult partition_interpolation(const SpeedList& speeds,
                                        std::int64_t n,
                                        const PartitionPolicy& policy) {
  const int max_iterations =
      policy.max_iterations.value_or(kSearchIterationCap);
  return detail::run_search(
      kAlgorithmInterpolation, speeds, n, policy,
      [&](detail::SearchState& state) {
        const double target = std::log(static_cast<double>(n));
        while (!state.converged() && state.iterations() < max_iterations) {
          const double n_large = std::accumulate(state.large().begin(),
                                                 state.large().end(), 0.0);
          const double n_small = std::accumulate(state.small().begin(),
                                                 state.small().end(), 0.0);
          const double lc_lo = std::log(state.lo_slope());
          const double lc_hi = std::log(state.hi_slope());
          double lc = 0.5 * (lc_lo + lc_hi);  // log-space bisection fallback

          // Illinois-style safeguard: every fourth step bisects
          // unconditionally, preventing the one-sided stagnation classic
          // regula falsi suffers.
          const bool force_bisect = state.iterations() % 4 == 3;
          if (!force_bisect && n_large > static_cast<double>(n) &&
              n_small < static_cast<double>(n) && n_small > 0.0) {
            // Secant of log(total size) vs log(slope) through the bracket
            // ends, evaluated at the target size.
            const double lN_lo = std::log(n_large);  // at lo_slope
            const double lN_hi = std::log(n_small);  // at hi_slope
            if (lN_hi < lN_lo) {
              const double t = (target - lN_lo) / (lN_hi - lN_lo);
              const double candidate = lc_lo + t * (lc_hi - lc_lo);
              // Keep the step inside the safeguard band so the bracket
              // shrinks geometrically even when the secant model is poor.
              const double margin =
                  policy.safeguard_margin * (lc_hi - lc_lo);
              if (candidate > lc_lo + margin && candidate < lc_hi - margin)
                lc = candidate;
            }
          }
          state.step_custom(std::exp(lc));
        }
      });
}

}  // namespace fpm::core
