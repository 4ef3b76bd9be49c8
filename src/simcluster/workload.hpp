// Transient workload fluctuation (paper §1, Figure 2): a computer that is an
// integrated node of a general-purpose network constantly runs routine jobs
// (mail clients, browsers, editors), so repeated runs of the same task give
// speeds inside a *band* rather than on a curve. The paper observes:
//   * highly integrated machines fluctuate ~40% at small problem sizes,
//     declining close-to-linearly with execution time to ~6% at the largest
//     solvable size;
//   * low-integration machines stay within ~5-7% throughout;
//   * a persistent heavy external load shifts the whole band down without
//     changing its width.
#pragma once

#include "simcluster/machine.hpp"
#include "util/rng.hpp"

namespace fpm::sim {

/// Parameters of one machine's fluctuation band.
struct FluctuationProfile {
  /// Full relative band width at negligible execution time (0.40 = 40%).
  double width_small = 0.40;
  /// Full relative band width floor at long execution times.
  double width_large = 0.06;
  /// Persistent external heavy load: both band edges scale by (1 - shift).
  double load_shift = 0.0;

  /// A low-integration machine: narrow, size-independent band.
  static FluctuationProfile low_integration(double width = 0.06) {
    return {width, width, 0.0};
  }
};

/// Full relative band width at problem size x for a machine whose
/// ground-truth curve is `truth`: declines linearly in the execution time
/// t(x), reaching the floor at `truth.saturation_time()`, the execution
/// time of the largest solvable problem (the paging cliff, past which the
/// machine thrashes). One speed evaluation.
double band_width(const FluctuationProfile& p, const MachineSpeed& truth,
                  double x);

/// Lower/upper band edges around the ground-truth speed at x.
struct BandEdges {
  double lower = 0.0;
  double upper = 0.0;
};
BandEdges band_edges(const FluctuationProfile& p, const MachineSpeed& truth,
                     double x);

/// One observed speed: uniform draw inside the band (a run of the task at a
/// random moment of the background-load cycle).
double sample_speed(const FluctuationProfile& p, const MachineSpeed& truth,
                    double x, util::Rng& rng);

}  // namespace fpm::sim
