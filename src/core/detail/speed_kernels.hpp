// The scalar math behind every analytic speed family, factored into free
// inline functions so the virtual SpeedFunction classes and the compiled
// (devirtualized) evaluation layer in core/compiled.* execute the *same*
// floating-point operations in the *same* order. Bit-identical results
// across the two paths are a hard requirement (asserted in tests); any
// change here changes both sides together, which is the point.
//
// Not part of the public API; include only from src/core/*.cpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace fpm::core::detail {

// -------------------------------------------------------------------------
// speed(x) kernels — one per analytic family, byte-for-byte the formulas
// documented in core/speed_function.hpp.
// -------------------------------------------------------------------------

inline double linear_decay_speed(double s0, double max_size, double floor,
                                 double x) {
  return std::max(floor, s0 * (1.0 - x / max_size));
}

inline double power_decay_speed(double s0, double x0, double k, double x) {
  if (x <= 0.0) return s0;
  return s0 / (1.0 + std::pow(x / x0, k));
}

inline double exp_decay_speed(double s0, double lambda, double x) {
  // A tiny positive floor keeps times finite (and the ratio decreasing)
  // even when exp(-x/lambda) underflows for absurdly oversized problems.
  return std::max(s0 * std::exp(-x / lambda), 1e-280);
}

inline double unimodal_speed(double s_low, double s_peak, double x_peak,
                             double x0, double k, double x) {
  double s;
  if (x <= 0.0) {
    s = s_low;
  } else if (x < x_peak) {
    // Concave sqrt ramp with positive intercept keeps speed(x)/x decreasing.
    s = s_low + (s_peak - s_low) * std::sqrt(x / x_peak);
  } else {
    s = s_peak;
  }
  // Decay engages smoothly around x0 (>= x_peak in sensible configurations).
  const double decay = x <= 0.0 ? 1.0 : 1.0 / (1.0 + std::pow(x / x0, k));
  return s * decay;
}

/// One multiplicative tanh step of the SteppedSpeed product form, given the
/// step's plateau ratio to/level (precomputed by the compiled layer).
inline double stepped_step_blend(double at, double ratio, double width,
                                 double x) {
  const double t = 0.5 * (1.0 + std::tanh((x - at) / width));
  return (1.0 - t) + t * ratio;
}

/// One multiplicative tanh step of the SteppedSpeed product form. The caller
/// iterates the steps in order, threading `s` (the accumulated speed) and
/// `level` (the previous plateau).
inline double stepped_step_factor(double at, double to, double width,
                                  double level, double x) {
  return stepped_step_blend(at, to / level, width, x);
}

// -------------------------------------------------------------------------
// intersect(slope) kernels: solve slope·x = s(x) on (0, max_size], with the
// same beyond-the-range semantics as SpeedFunction::intersect.
// -------------------------------------------------------------------------

/// Thread-local tally of generic_intersect bracket saturations: expansions
/// that hit the 256-doubling cap with the curve still above the line. A
/// saturated solve silently returns the midpoint of a bracket that does NOT
/// straddle the crossing — the answer is the furthest representable probe
/// (~max_size·2^256), not the true intersection. Callers that care
/// (detail::SearchState -> PartitionStats::bracket_saturations, rolled into
/// the partition.intersect.bracket_saturations obs counter) snapshot this
/// tally around a solve; the counter is cheap because it only moves on the
/// (pathological) saturating slopes.
inline std::int64_t& bracket_saturation_tally() noexcept {
  thread_local std::int64_t tally = 0;
  return tally;
}

/// The default bisection of SpeedFunction::intersect, templated over the
/// speed callable so the compiled layer can run it without virtual calls.
/// `speed` must be the exact function the owning object exposes.
template <typename SpeedFn>
inline double generic_intersect(SpeedFn&& speed, double max_size,
                                double slope) {
  // The ratio r(x) = speed(x)/x is strictly decreasing with r(0+) = +inf.
  // Speed functions remain defined beyond max_size() (continuing their
  // decay trend), so when even at x = b the curve is above the line the
  // bracket expands geometrically until it straddles the crossing: the
  // partitioning problem stays well-posed even when n exceeds the sum of
  // the modelled ranges.
  double hi = max_size;
  int doublings = 0;
  while (doublings < 256 && speed(hi) >= slope * hi) {
    hi *= 2.0;
    ++doublings;
  }
  if (doublings == 256 && speed(hi) >= slope * hi)
    ++bracket_saturation_tally();  // saturated: [0, hi] does not straddle
  double lo = 0.0;  // ratio(lo) > slope (limit at 0+)
  // 200 halvings of [0, b] reach ~b/2^200: far below any representable
  // spacing, so the loop is effectively exact; bail early on fixpoint.
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    if (speed(mid) > slope * mid)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

inline double constant_intersect(double s0, double slope) {
  // The constant model has no memory wall: the crossing is exact and may
  // lie beyond the modelled range (consistent with speed() everywhere s0).
  return s0 / slope;
}

inline double linear_decay_intersect(double s0, double max_size, double floor,
                                     double slope) {
  // c·x = s0·(1 - x/B)  =>  x = s0 / (c + s0/B); valid while above floor.
  const double x = s0 / (slope + s0 / max_size);
  if (s0 * (1.0 - x / max_size) >= floor) return x;
  // On the floor plateau the crossing is floor/c (possibly beyond B).
  return floor / slope;
}

/// Closed-form intersection for the power-decay family, solved in log
/// space: with y = ln x the crossing slope·x·(1 + (x/x0)^k) = s0 becomes
///   h(y) = ln(slope) - ln(s0) + y + softplus(k·(y - ln x0)) = 0,
/// where softplus(z) = ln(1 + e^z). h is increasing and convex with
/// h' = 1 + k·sigmoid(z) in [1, 1+k], so Newton started from the flat-head
/// bound y0 = ln(s0/slope) (where h(y0) = softplus >= 0) steps once to the
/// left of the root and then climbs monotonically with quadratic local
/// convergence — a handful of iterations for any slope, versus the ~200
/// halvings of the generic bisection. The log parameterization keeps every
/// intermediate finite even where (x/x0)^k itself would overflow.
///
/// Lines shallow enough to cross beyond max_size·2^256 — the furthest the
/// generic bisection's bracket expansion reaches — are delegated to that
/// bisection so the two paths stay interchangeable even where the generic
/// answer is its saturated bracket rather than the true crossing. Such a
/// delegated solve saturates the bisection's bracket by construction and
/// therefore bumps bracket_saturation_tally(): the returned value is the
/// saturated bracket's midpoint (~max_size·2^255), a deliberate stand-in
/// for an astronomically distant crossing, and the tally is how that loss
/// of meaning becomes observable instead of silent.
inline double power_decay_intersect(double s0, double x0, double k,
                                    double max_size, double slope) {
  const double c0 = std::log(slope) - std::log(s0);
  const double ly0 = std::log(x0);
  double y = -c0;  // ln(s0/slope): the curve never exceeds s0
  for (int i = 0; i < 80; ++i) {
    const double z = k * (y - ly0);
    const double softplus = z > 0.0 ? z + std::log1p(std::exp(-z))
                                    : std::log1p(std::exp(z));
    const double h = c0 + y + softplus;
    const double dh = 1.0 + k / (1.0 + std::exp(-z));
    const double next = y - h / dh;
    if (std::abs(next - y) <= 1e-15) {
      y = next;
      break;
    }
    y = next;
  }
  const double x = std::exp(y);
  if (!(x < max_size * 0x1p256))
    return generic_intersect(
        [&](double xx) { return power_decay_speed(s0, x0, k, xx); }, max_size,
        slope);
  return x;
}

/// Closed-form intersection for the exponential-decay family: substituting
/// u = x/lambda turns the smooth crossing slope·x = s0·exp(-x/lambda) into
///   u + ln u = K,  K = ln(s0/lambda) - ln(slope),
/// whose left side is increasing and concave (d/du = 1 + 1/u), so Newton
/// from u0 = K (for K > 1, where the residual ln K is >= 0) or from the
/// underestimate e^(K-1) converges monotonically after the first step. The
/// 1e-280 floor of the speed kernel only matters for astronomically shallow
/// lines; when the smooth root lands below the floor the crossing moves
/// onto the floor plateau at floor/slope, mirroring the generic bisection
/// on the floored curve.
inline double exp_decay_intersect(double s0, double lambda,
                                  [[maybe_unused]] double max_size,
                                  double slope) {
  const double K = std::log(s0 / lambda) - std::log(slope);
  double u = K > 1.0 ? K : std::exp(K - 1.0);
  for (int i = 0; i < 80; ++i) {
    const double h = u + std::log(u) - K;
    const double dh = 1.0 + 1.0 / u;
    const double next = u - h / dh;
    if (!(next > 0.0)) break;  // round-off guard; the root is positive
    if (std::abs(next - u) <= 1e-15 * u) {
      u = next;
      break;
    }
    u = next;
  }
  const double x = u * lambda;
  if (s0 * std::exp(-x / lambda) >= 1e-280) return x;
  return 1e-280 / slope;  // crossing on the underflow floor plateau
}

// -------------------------------------------------------------------------
// Piece-wise-linear helpers, shared between PiecewiseLinearSpeed (AoS
// breakpoints) and the compiled SoA layout. Segment *selection* may differ
// structurally between the two as long as it picks the same segment; the
// arithmetic on the selected segment lives here.
// -------------------------------------------------------------------------

/// Linear interpolation on the segment [x0, x1].
inline double piecewise_segment_speed(double x0, double s0, double x1,
                                      double s1, double x) {
  const double t = (x - x0) / (x1 - x0);
  return s0 + t * (s1 - s0);
}

/// Extrapolation beyond the last breakpoint: a falling final segment
/// continues its cached slope, a flat or rising one extends as a constant;
/// both clamp at the positive floor. `dx` is x - last_breakpoint (>= 0).
inline double piecewise_tail_speed(double last_speed, double tail_slope,
                                   double floor_speed, double dx) {
  if (tail_slope >= 0.0) return std::max(floor_speed, last_speed);
  return std::max(floor_speed, last_speed + tail_slope * dx);
}

/// Crossing of slope·x = s(x) when it lies beyond the last breakpoint:
/// try the extended falling segment first, then the constant extension,
/// then the floor plateau.
inline double piecewise_tail_intersect(double last_x, double last_speed,
                                       double tail_slope, double floor_speed,
                                       double slope) {
  if (tail_slope < 0.0 && slope != tail_slope) {
    const double x = (last_speed - tail_slope * last_x) / (slope - tail_slope);
    if (x >= last_x && last_speed + tail_slope * (x - last_x) >= floor_speed)
      return x;
  }
  if (tail_slope >= 0.0 && last_speed > floor_speed)
    return last_speed / slope;  // constant extension
  return floor_speed / slope;
}

/// Solves slope·x = s0 + m·(x - x0) for the segment through (x0, s0) with
/// slope m, clamped to [seg_lo, seg_hi] against round-off.
inline double piecewise_segment_intersect(double x0, double s0, double m,
                                          double slope, double seg_lo,
                                          double seg_hi) {
  const double x = (s0 - m * x0) / (slope - m);
  return std::clamp(x, seg_lo, seg_hi);
}

}  // namespace fpm::core::detail
