#include "core/detail/search_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/detail/speed_kernels.hpp"

namespace fpm::core::detail {

namespace {

// Warm-bracket tuning. The first probes straddle the hinted slope at
// 1 ± ~2^-12 (≈0.02%) — tight enough that a near-exact hint leaves only a
// handful of integers inside the bracket and the bisection finishes in a
// few steps. Each side that fails to straddle n widens quartically in log
// space (2^-12 → 2^-10 → 2^-8 → ...), so percent-level drift costs two or
// three extra line solves and the abandon threshold (spread 16x) is
// reached after seven widenings. The budget caps the line solves a garbage
// hint can burn before the search falls back to the cold bracket.
constexpr double kWarmInitialSpread = 1.0 + 0x1p-12;
constexpr double kWarmMaxSpread = 16.0;
constexpr int kWarmProbeBudget = 12;

}  // namespace

SearchState::SearchState(const SpeedList& speeds, std::int64_t n,
                         const SearchObserver* observer,
                         const PartitionHint* hint)
    : n_(static_cast<double>(n)),
      saturation_base_(bracket_saturation_tally()),
      observer_(observer) {
  speeds_.reserve(speeds.size());
  if (compiled_partitioning_enabled()) {
    // Compiled mode: flatten once, then run the bracket detection and both
    // initial line solves on the devirtualized kernels. The entry views only
    // exist so counted_speeds() keeps its SpeedList shape for fine-tuning.
    // A PrecompiledGuard hint for this exact list (the batch server compiles
    // each request once up front) short-circuits the compilation entirely.
    if (const CompiledSpeedList* pre = precompiled_match(speeds)) {
      compiled_ = pre;
    } else {
      compiled_storage_.emplace(CompiledSpeedList::compile(speeds));
      compiled_ = &*compiled_storage_;
    }
    entry_views_.reserve(speeds.size());
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      entry_views_.emplace_back(*compiled_, i, &counters_);
      speeds_.push_back(&entry_views_.back());
    }
  } else {
    views_.reserve(speeds.size());
    for (const SpeedFunction* f : speeds) {
      views_.emplace_back(*f, &counters_.speed_evals,
                          &counters_.intersect_solves);
      speeds_.push_back(&views_.back());
    }
  }
  if (hint != nullptr && hint->usable())
    warmstart_ =
        try_warm_bracket(*hint, n, speeds) ? WarmStart::Hit : WarmStart::Stale;
  if (warmstart_ != WarmStart::Hit) {
    // The bracket's last expansion tests already solved both lines; keep
    // those sizes instead of solving the lines again.
    bracket_ = compiled_ != nullptr
                   ? detect_bracket(*compiled_, n, &counters_, &small_, &large_)
                   : detect_bracket(speeds_, n, &small_, &large_);
  }
  intersections_ += static_cast<int>(2 * speeds_.size());
  if (observing())
    emit(SearchStepKind::Bracket, bracket_.hi_slope, false, kNoProcessor);
}

std::int64_t SearchState::bracket_saturations() const noexcept {
  return bracket_saturation_tally() - saturation_base_;
}

bool SearchState::try_warm_bracket(const PartitionHint& hint, std::int64_t n,
                                   const SpeedList& original) {
  // A hint computed against different models is stale by definition; the
  // fingerprint check catches silent model swaps behind an unchanged call
  // site. fingerprint == 0 opts out (callers whose curves legitimately
  // change every round rely on the bracket verification below instead).
  if (hint.fingerprint != 0) {
    const std::uint64_t fp = compiled_ != nullptr
                                 ? compiled_->fingerprint()
                                 : CompiledSpeedList::fingerprint_of(original);
    if (fp != hint.fingerprint) return false;
  }
  // When n drifted, rescale: sizes at a slope scale roughly like 1/slope,
  // so the new optimum sits near slope·(old n / new n).
  double center = hint.slope;
  if (hint.n > 0 && hint.n != n)
    center *= static_cast<double>(hint.n) / static_cast<double>(n);
  if (!std::isfinite(center) || center <= 0.0) return false;

  const double nd = static_cast<double>(n);
  int budget = kWarmProbeBudget;
  const auto solve = [&](double slope, std::vector<double>& sizes) {
    sizes = compiled_ != nullptr ? sizes_at(*compiled_, slope, &counters_)
                                 : sizes_at(speeds_, slope);
    --budget;
    double total = 0.0;
    for (const double x : sizes) total += x;
    return total;
  };

  // Steep side: need total <= n at hi. A good hint verifies on the first
  // probe; otherwise widen until it does or the spread says the optimum
  // moved too far for the hint to be worth anything.
  double f_hi = kWarmInitialSpread;
  double hi = center * f_hi;
  std::vector<double> hi_sizes;
  double hi_total = solve(hi, hi_sizes);
  while (hi_total > nd && budget > 0) {
    f_hi *= f_hi;
    f_hi *= f_hi;
    if (f_hi > kWarmMaxSpread) return false;
    hi = center * f_hi;
    if (!std::isfinite(hi)) return false;
    hi_total = solve(hi, hi_sizes);
  }
  if (hi_total > nd) return false;

  // Shallow side: need total >= n at lo.
  double f_lo = kWarmInitialSpread;
  double lo = center / f_lo;
  std::vector<double> lo_sizes;
  double lo_total = solve(lo, lo_sizes);
  while (lo_total < nd && budget > 0) {
    f_lo *= f_lo;
    f_lo *= f_lo;
    if (f_lo > kWarmMaxSpread) return false;
    lo = center / f_lo;
    if (!(lo > 0.0)) return false;
    lo_total = solve(lo, lo_sizes);
  }
  if (lo_total < nd) return false;

  bracket_.lo_slope = lo;
  bracket_.hi_slope = hi;
  small_ = std::move(hi_sizes);
  large_ = std::move(lo_sizes);
  return true;
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
  for (std::size_t i = 0; i < speeds_.size(); ++i) total += interior_count(i);
  return total;
}

bool SearchState::converged() const {
  // No integer strictly inside (small[i], large[i]) for any processor. A
  // candidate equal to a bracket endpoint is already represented by that
  // line, so strict interiority is the right test.
  for (std::size_t i = 0; i < speeds_.size(); ++i) {
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
  std::vector<double> sizes = compiled_
                                  ? sizes_at(*compiled_, slope, &counters_)
                                  : sizes_at(speeds_, slope);
  intersections_ += static_cast<int>(speeds_.size());
  double sum = 0.0;
  for (const double x : sizes) sum += x;
  bool kept_low;
  if (sum < n_) {
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
  for (std::size_t i = 0; i < speeds_.size(); ++i) {
    const std::int64_t c = interior_count(i);
    if (c > best_count) {
      best_count = c;
      best = i;
    }
  }
  const double m = 0.5 * (small_[best] + large_[best]);
  double slope = m > 0.0 ? speeds_[best]->speed(m) / m : 0.0;
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
