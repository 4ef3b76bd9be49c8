#include "core/detail/search_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/detail/speed_kernels.hpp"

namespace fpm::core::detail {

namespace {

// Warm-bracket tuning. The hinted slope, rescaled by old n / new n (sizes
// scale roughly like 1/slope), is refined by up to kWarmSecantSteps secant
// steps on g(c) = ln N(c) - ln n over ln c, N(c) being the total size on
// the line of slope c. The hint's own (slope, n) is the first secant point;
// when it coincides with the centre (same n) the first step assumes the
// log-log elasticity E = d ln N / d ln c of constant speeds, -1. Steps stop
// once |N - n| < kWarmSecantTolerance elements, and stay inside the slopes
// already known to straddle n. The centre's own line is then one side of
// the bracket; the other side is probed at relative distance
// eta = 1 / (16 n |E|) beyond the secant's remaining miss — a line about
// 1/16 of an element away in total, so a converged bracket usually falls
// out after zero or one bisection steps. A probed line within
// kWarmReuseElements of n on the far side is reused instead. A far probe
// that lands on the near side widens 4x. Every probe must stay within
// kWarmWindow of the rescaled centre, and the attempt within
// kWarmProbeBudget line solves; otherwise the hint is stale and the search
// runs the cold bracket. Measured elasticities are clamped to
// [kWarmMinElasticity, kWarmMaxElasticity] in magnitude, so a flat or
// stepped stretch of the curves cannot throw a step out of all proportion.
constexpr int kWarmSecantSteps = 3;
constexpr double kWarmSecantTolerance = 0.01;
constexpr double kWarmStraddleElements = 1.0 / 16.0;
constexpr double kWarmMinStraddle = 0x1p-50;  // a few ULPs of the slope
constexpr double kWarmReuseElements = 1.0;
constexpr double kWarmWiden = 4.0;
constexpr double kWarmWindow = 16.0;
constexpr int kWarmProbeBudget = 12;
constexpr double kWarmMinElasticity = 1.0 / 64.0;
constexpr double kWarmMaxElasticity = 64.0;

}  // namespace

SearchState::SearchState(const SpeedList& speeds, std::int64_t n,
                         const SearchObserver* observer,
                         const PartitionHint* hint)
    : n_(n),
      saturation_base_(bracket_saturation_tally()),
      observer_(observer),
      hint_(hint) {
  // A PrecompiledGuard hint for this exact list (the batch server compiles
  // each request once up front) short-circuits the compilation entirely.
  if (const CompiledSpeedList* pre = precompiled_match(speeds)) {
    compiled_ = pre;
  } else {
    compiled_storage_.emplace(CompiledSpeedList::compile(speeds));
    compiled_ = &*compiled_storage_;
  }
  if (hint != nullptr && hint->usable())
    warmstart_ = try_warm_bracket(*hint, n) ? WarmStart::Hit : WarmStart::Stale;
  // The bracket's last expansion tests already solved both lines; keep
  // those sizes instead of solving the lines again.
  if (warmstart_ != WarmStart::Hit)
    bracket_ = detect_bracket(*compiled_, n, &counters_, &small_, &large_);
  intersections_ += static_cast<int>(2 * compiled_->size());
  if (observing())
    emit(SearchStepKind::Bracket, bracket_.hi_slope, false, kNoProcessor);
}

std::int64_t SearchState::bracket_saturations() const noexcept {
  return bracket_saturation_tally() - saturation_base_;
}

bool SearchState::try_warm_bracket(const PartitionHint& hint,
                                   std::int64_t n) {
  // A hint computed against different models is stale by definition; the
  // fingerprint check catches silent model swaps behind an unchanged call
  // site. fingerprint == 0 opts out (callers whose curves legitimately
  // change every round rely on the bracket verification below instead).
  if (hint.fingerprint != 0 && compiled_->fingerprint() != hint.fingerprint)
    return false;
  // When n drifted, rescale: sizes at a slope scale roughly like 1/slope,
  // so the new optimum sits near slope·(old n / new n).
  double center = hint.slope;
  if (hint.n > 0 && hint.n != n)
    center *= static_cast<double>(hint.n) / static_cast<double>(n);
  if (!std::isfinite(center) || center <= 0.0) return false;

  const double nd = static_cast<double>(n);
  const double log_n = std::log(nd);
  const double window_lo = center / kWarmWindow;
  const double window_hi = center * kWarmWindow;
  int budget = kWarmProbeBudget;

  // The tightest probed line on each side of n: steep (total <= n, the
  // smallest such slope) and shallow (total > n, the largest). 0 = none.
  double steep = 0.0, shallow = 0.0;
  double steep_total = 0.0, shallow_total = 0.0;
  std::vector<double> steep_sizes, shallow_sizes, sizes;
  // Solves one line and files it by side; returns its total, or NaN when
  // the slope leaves the window, the budget is spent, or the total is
  // degenerate — each of which makes the hint stale.
  const auto probe = [&](double slope) {
    constexpr double kStale = std::numeric_limits<double>::quiet_NaN();
    if (!(slope >= window_lo && slope <= window_hi) || budget == 0)
      return kStale;
    sizes = sizes_at(*compiled_, slope, &counters_);
    --budget;
    ++warm_probes_;
    double total = 0.0;
    for (const double x : sizes) total += x;
    if (!(total > 0.0) || !std::isfinite(total)) return kStale;
    if (total <= nd) {
      if (steep == 0.0 || slope < steep) {
        steep = slope;
        steep_total = total;
        steep_sizes.swap(sizes);
      }
    } else if (slope > shallow) {
      shallow = slope;
      shallow_total = total;
      shallow_sizes.swap(sizes);
    }
    return total;
  };

  // Refine the centre. (c_prev, g_prev) starts as the hint's own line.
  double c = center;
  double total = probe(c);
  if (std::isnan(total)) return false;
  double g = std::log(total) - log_n;
  double c_prev = hint.slope;
  double g_prev =
      hint.n > 0 ? std::log(static_cast<double>(hint.n)) - log_n : 0.0;
  double elasticity = -1.0;
  const auto measure_elasticity = [&] {
    if (c == c_prev) return;
    const double e = (g - g_prev) / std::log(c / c_prev);
    if (std::isfinite(e) && e < 0.0)
      elasticity = std::clamp(e, -kWarmMaxElasticity, -kWarmMinElasticity);
  };
  for (int step = 0; step < kWarmSecantSteps &&
                     std::abs(total - nd) >= kWarmSecantTolerance;
       ++step) {
    measure_elasticity();
    c_prev = c;
    g_prev = g;
    c *= std::exp(-g / elasticity);
    // Safeguard: once both sides are known the root lies between them.
    if (steep != 0.0 && shallow != 0.0 && !(c > shallow && c < steep))
      c = std::sqrt(shallow * steep);
    total = probe(c);
    if (std::isnan(total)) return false;
    g = std::log(total) - log_n;
  }
  measure_elasticity();

  // Straddle: the centre is one side; find the other.
  const bool centre_steep = total <= nd;
  const double far = centre_steep ? shallow : steep;
  const double far_total = centre_steep ? shallow_total : steep_total;
  if (far == 0.0 || std::abs(far_total - nd) > kWarmReuseElements) {
    const double eta = std::max(
        kWarmStraddleElements / (nd * -elasticity), kWarmMinStraddle);
    for (double delta = eta + std::abs(g / elasticity);; delta *= kWarmWiden) {
      const double far_probe = probe(centre_steep ? c / (1.0 + delta)
                                                  : c * (1.0 + delta));
      if (std::isnan(far_probe)) return false;
      if ((far_probe <= nd) != centre_steep) break;
    }
  }
  if (!(shallow > 0.0 && shallow < steep)) return false;

  bracket_.lo_slope = shallow;
  bracket_.hi_slope = steep;
  small_ = std::move(steep_sizes);
  large_ = std::move(shallow_sizes);
  return true;
}

void SearchState::finish(PartitionResult& result) {
  PartitionStats& stats = result.stats;
  stats.iterations = iterations_;
  stats.intersections = intersections_;
  stats.final_slope = bracket_.hi_slope;
  stats.search_speed_evals = counters_.speed_evals;
  stats.search_intersect_solves = counters_.intersect_solves;
  result.distribution = fine_tune(*compiled_, n_, small_, &counters_);
  stats.speed_evals = counters_.speed_evals;
  stats.intersect_solves = counters_.intersect_solves;
  stats.bracket_saturations = bracket_saturations();
  stats.warmstart = warmstart_;
  stats.warm_probes = warm_probes_;
  if (warmstart_ == WarmStart::Hit)
    stats.iterations_saved =
        std::max(0, hint_->baseline_iterations - iterations_);
}

std::int64_t SearchState::interior_count(std::size_t i) const {
  // Integers k with small[i] < k <= large[i].
  const double lo = small_[i];
  const double hi = large_[i];
  if (hi <= lo) return 0;
  return static_cast<std::int64_t>(std::floor(hi)) -
         static_cast<std::int64_t>(std::floor(lo));
}

std::int64_t SearchState::total_interior() const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < small_.size(); ++i) total += interior_count(i);
  return total;
}

bool SearchState::converged() const {
  // No integer strictly inside (small[i], large[i]) for any processor. A
  // candidate equal to a bracket endpoint is already represented by that
  // line, so strict interiority is the right test.
  for (std::size_t i = 0; i < small_.size(); ++i) {
    double k = std::floor(large_[i]);
    if (k == large_[i]) k -= 1.0;  // want strictly below the shallow line
    if (k > small_[i]) return false;
  }
  return true;
}

void SearchState::emit(SearchStepKind kind, double slope, bool kept_low,
                       std::size_t processor) const {
  SearchStep step;
  step.iteration = iterations_;
  step.kind = kind;
  step.slope = slope;
  step.lo_slope = bracket_.lo_slope;
  step.hi_slope = bracket_.hi_slope;
  step.interior = total_interior();
  step.kept_low = kept_low;
  step.processor = processor;
  (*observer_)(step);
}

void SearchState::split_at(double slope, SearchStepKind kind,
                           std::size_t processor) {
  ++iterations_;
  std::vector<double> sizes = sizes_at(*compiled_, slope, &counters_);
  intersections_ += static_cast<int>(sizes.size());
  double sum = 0.0;
  for (const double x : sizes) sum += x;
  bool kept_low;
  if (sum < static_cast<double>(n_)) {
    // Line too steep: the optimum lies in the shallower (lower) region.
    bracket_.hi_slope = slope;
    small_ = std::move(sizes);
    kept_low = true;
  } else {
    bracket_.lo_slope = slope;
    large_ = std::move(sizes);
    kept_low = false;
  }
  if (observing()) emit(kind, slope, kept_low, processor);
}

void SearchState::degenerate_step(double slope) {
  ++iterations_;
  if (observing())
    emit(SearchStepKind::Degenerate, slope, false, kNoProcessor);
}

void SearchState::step_basic(bool bisect_angles) {
  double mid;
  if (bisect_angles) {
    const double theta =
        0.5 * (std::atan(bracket_.lo_slope) + std::atan(bracket_.hi_slope));
    mid = std::tan(theta);
  } else {
    mid = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  }
  // Guard against a degenerate midpoint (possible once the interval reaches
  // round-off width): nudge to the geometric mean, then give up gracefully
  // by reusing an endpoint, which converged() will catch via the x-brackets.
  if (!(mid > bracket_.lo_slope) || !(mid < bracket_.hi_slope))
    mid = std::sqrt(bracket_.lo_slope * bracket_.hi_slope);
  if (!(mid > bracket_.lo_slope) || !(mid < bracket_.hi_slope)) {
    degenerate_step(mid);
    return;
  }
  split_at(mid, SearchStepKind::Basic);
}

void SearchState::step_custom(double slope) {
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope))
    slope = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope)) {
    degenerate_step(slope);
    return;
  }
  split_at(slope, SearchStepKind::Custom);
}

void SearchState::step_modified() {
  // Processor whose graph carries the most candidate solutions.
  std::size_t best = 0;
  std::int64_t best_count = -1;
  for (std::size_t i = 0; i < small_.size(); ++i) {
    const std::int64_t c = interior_count(i);
    if (c > best_count) {
      best_count = c;
      best = i;
    }
  }
  const double m = 0.5 * (small_[best] + large_[best]);
  double slope = 0.0;
  if (m > 0.0) {
    ++counters_.speed_evals;
    slope = compiled_->speed(best, m) / m;
  }
  // m lies strictly between the two intersections of graph `best`, so by the
  // decreasing-ratio property the new slope lies strictly inside the slope
  // interval; re-bisect on tangents if round-off breaks that.
  if (slope > bracket_.lo_slope && slope < bracket_.hi_slope) {
    split_at(slope, SearchStepKind::Modified, best);
    return;
  }
  slope = 0.5 * (bracket_.lo_slope + bracket_.hi_slope);
  if (!(slope > bracket_.lo_slope) || !(slope < bracket_.hi_slope)) {
    degenerate_step(slope);
    return;
  }
  split_at(slope, SearchStepKind::Basic);
}

}  // namespace fpm::core::detail
