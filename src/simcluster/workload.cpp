#include "simcluster/workload.hpp"

#include <algorithm>

namespace fpm::sim {

double band_width(const FluctuationProfile& p, const MachineSpeed& truth,
                  double x) {
  const double t = truth.time(std::max(x, 0.0));
  const double t_sat = truth.saturation_time();
  const double frac = t_sat > 0.0 ? std::clamp(t / t_sat, 0.0, 1.0) : 1.0;
  return p.width_large + (p.width_small - p.width_large) * (1.0 - frac);
}

BandEdges band_edges(const FluctuationProfile& p, const MachineSpeed& truth,
                     double x) {
  const double s = truth.speed(x) * (1.0 - p.load_shift);
  const double half = 0.5 * band_width(p, truth, x);
  return {s * (1.0 - half), s * (1.0 + half)};
}

double sample_speed(const FluctuationProfile& p, const MachineSpeed& truth,
                    double x, util::Rng& rng) {
  const BandEdges e = band_edges(p, truth, x);
  return rng.uniform(e.lower, e.upper);
}

}  // namespace fpm::sim
