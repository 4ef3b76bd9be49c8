#include "core/detail/search_state.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/detail/speed_kernels.hpp"

namespace fpm::core::detail {

namespace {

// Secant-bracket tuning, shared by the warm and the cold start. The secant
// runs on g(c) = ln N(c) - ln n over ln c (see SearchState::secant_slope)
// for up to kSecantSteps + 1 probes, and stops once |N - n| <
// kSecantTolerance elements. Once both sides are known every step stays
// strictly between them. The last probe is then one side of the bracket;
// the other side is probed at relative distance eta = 1 / (16 n |E|)
// beyond the secant's remaining miss — a line about 1/16 of an element away
// in total, so a converged bracket usually falls out after zero or one
// bisection steps. A solved line within kReuseElements of n on the far side
// is reused instead. A far probe that lands on the near side widens 4x, and
// a far probe that would pass the far side's known line is not needed. The
// whole attempt gets kProbeBudget line solves. A warm start confines its
// probes to kWarmWindow around the rescaled hint and goes stale when a
// probe would leave it; a cold start's window is the Figure-18 bracket.
// A cold start opens at the mean-speed line only when that window is wider
// than kWarmWindow, and stops there once two or more probes land on one
// side at an elasticity below kMinElasticity in magnitude (a flat curve);
// otherwise it opens from the two Figure-18 lines.
// Until both sides are known, the elasticity a step uses is clamped to
// [kMinElasticity, kMaxElasticity] in magnitude, so a flat or stepped
// stretch of the curves cannot throw it out of all proportion; after that
// the known sides bound every step, and the measured elasticity is used as
// is (the exponential family's is far below 1/64).
constexpr int kSecantSteps = 8;  // leaves 3 probes of the budget to straddle
constexpr double kSecantTolerance = 0.01;
constexpr double kStraddleElements = 1.0 / 16.0;
constexpr double kMinStraddle = 0x1p-50;  // a few ULPs of the slope
constexpr double kReuseElements = 1.0;
constexpr double kWiden = 4.0;
constexpr double kWarmWindow = 16.0;
constexpr int kProbeBudget = 12;
constexpr double kMinElasticity = 1.0 / 64.0;
constexpr double kMaxElasticity = 64.0;

double line_sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

}  // namespace

SearchState::SearchState(const CompiledSpeedList& speeds, std::int64_t n,
                         const SearchObserver* observer,
                         const PartitionHint* hint, Bracket start)
    : compiled_(speeds),
      n_(n),
      log_n_(std::log(static_cast<double>(n))),
      saturation_base_(bracket_saturation_tally()),
      observer_(observer),
      hint_(hint) {
  if (hint != nullptr && hint->usable())
    warmstart_ = try_warm_bracket(*hint) ? WarmStart::Hit : WarmStart::Stale;
  if (warmstart_ != WarmStart::Hit) open_cold(start);
  intersections_ += static_cast<int>(2 * compiled_.size());
  if (observing())
    emit(SearchStepKind::Bracket, bracket_.hi_slope, false, kNoProcessor);
}

std::int64_t SearchState::bracket_saturations() const noexcept {
  return bracket_saturation_tally() - saturation_base_;
}

void SearchState::restart_secant(SecantPoint older, SecantPoint newer) {
  elasticity_ = -1.0;
  last_ = older;
  remember(newer);
}

void SearchState::remember(SecantPoint line) {
  const SecantPoint prev = last_;
  last_ = line;
  if (line.slope == prev.slope) return;
  const double e = (line.g - prev.g) / std::log(line.slope / prev.slope);
  if (std::isfinite(e) && e < 0.0) elasticity_ = e;
}

SearchState::SecantOutcome SearchState::secant_bracket(double window_lo,
                                                       double window_hi,
                                                       Side& steep,
                                                       Side& shallow,
                                                       bool stop_when_flat) {
  const double nd = static_cast<double>(n_);
  SecantOutcome out;
  double total = 0.0;  // of the last probe
  // Solves one line, files it by side and feeds it to the secant; false
  // when the slope leaves the window, the budget is spent, or the total is
  // degenerate.
  const auto probe = [&](double slope) {
    if (!(slope >= window_lo && slope <= window_hi) ||
        out.probes == kProbeBudget)
      return false;
    scratch_.resize(compiled_.size());
    sizes_at(compiled_, slope, &counters_, scratch_);
    ++out.probes;
    total = line_sum(scratch_);
    if (!(total > 0.0) || !std::isfinite(total)) return false;
    const bool is_steep = total <= nd;
    Side& side = is_steep ? steep : shallow;
    if (side.slope == 0.0 ||
        (is_steep ? slope < side.slope : slope > side.slope)) {
      side.slope = slope;
      side.total = total;
      side.sizes.swap(scratch_);
    }
    remember({slope, std::log(total) - log_n_});
    return true;
  };
  const auto straddled = [&] {
    return shallow.slope > 0.0 && shallow.slope < steep.slope;
  };
  // Until both sides are known nothing bounds a step but the clamp.
  const auto elasticity = [&] {
    return straddled() ? elasticity_
                       : std::clamp(elasticity_, -kMaxElasticity,
                                    -kMinElasticity);
  };

  // Refine: secant steps from the current pair.
  for (int step = 0; step <= kSecantSteps; ++step) {
    double c = secant_step(elasticity());
    // Safeguard: once both sides are known the root lies between them.
    if (straddled() && !(c > shallow.slope && c < steep.slope))
      c = std::sqrt(shallow.slope * steep.slope);
    if (!probe(c)) return out;
    if (std::abs(total - nd) < kSecantTolerance) break;
    // A flat curve: every probe so far on one side, the last pair's
    // elasticity below the clamp.
    if (stop_when_flat && !straddled() && out.probes >= 2 &&
        elasticity_ > -kMinElasticity)
      return out;
  }

  // Straddle: the last probe is one side; find the other.
  const double c = last_.slope;
  const bool centre_steep = total <= nd;
  const Side& far = centre_steep ? shallow : steep;
  if (far.slope == 0.0 || std::abs(far.total - nd) > kReuseElements) {
    const double e = elasticity();
    const double eta = std::max(kStraddleElements / (nd * -e), kMinStraddle);
    for (double delta = eta + std::abs(last_.g / e);; delta *= kWiden) {
      const double target =
          centre_steep ? c / (1.0 + delta) : c * (1.0 + delta);
      if (far.slope != 0.0 &&
          !(centre_steep ? target > far.slope : target < far.slope))
        break;  // the known far line is tighter already
      if (!probe(target)) return out;
      if ((total <= nd) != centre_steep) break;
    }
  }
  out.straddled = straddled();
  return out;
}

bool SearchState::try_warm_bracket(const PartitionHint& hint) {
  // A hint computed against different models is stale by definition; the
  // fingerprint check catches silent model swaps behind an unchanged call
  // site. fingerprint == 0 opts out (callers whose curves legitimately
  // change every round rely on the bracket verification below instead).
  if (hint.fingerprint != 0 && compiled_.fingerprint() != hint.fingerprint)
    return false;
  // When n drifted, rescale: sizes at a slope scale roughly like 1/slope,
  // so the new optimum sits near slope·(old n / new n) — the secant's
  // first step from the hint's own line, at elasticity -1.
  double center = hint.slope;
  if (hint.n > 0 && hint.n != n_)
    center *= static_cast<double>(hint.n) / static_cast<double>(n_);
  if (!std::isfinite(center) || center <= 0.0) return false;
  const SecantPoint line{
      hint.slope,
      hint.n > 0 ? std::log(static_cast<double>(hint.n)) - log_n_ : 0.0};
  restart_secant(line, line);

  Side steep, shallow;
  const SecantOutcome out = secant_bracket(
      center / kWarmWindow, center * kWarmWindow, steep, shallow, false);
  warm_probes_ += out.probes;
  if (!out.straddled) return false;
  adopt(steep, shallow);
  return true;
}

void SearchState::open_cold(Bracket start) {
  double mean_slope = 0.0;
  const SlopeBracket figure18 =
      figure18_probe(compiled_, n_, &counters_, scratch_, &mean_slope);
  const double hi = figure18.hi_slope;
  const double lo = figure18.lo_slope;

  Side steep, shallow;
  if (start == Bracket::Secant && hi > kWarmWindow * lo) {
    // A wide window: open the secant at the mean-speed line, the mean of
    // the per-processor Figure-18 slopes (exact for constant speeds),
    // inside the Figure-18 window.
    const SecantPoint mean{mean_slope, 0.0};
    restart_secant(mean, mean);
    if (secant_bracket(lo, hi, steep, shallow, true).straddled) {
      adopt(steep, shallow);
      return;
    }
  }
  // The Figure-18 lines, each on a side no probe has found yet.
  if (steep.slope == 0.0) solve_figure18_line(hi, true, steep);
  if (shallow.slope == 0.0) solve_figure18_line(lo, false, shallow);
  // The line nearer n in total goes last: the secant's next step leans on
  // the newer line.
  const SecantPoint steep_line{steep.slope, std::log(steep.total) - log_n_};
  const SecantPoint shallow_line{shallow.slope,
                                 std::log(shallow.total) - log_n_};
  if (std::abs(steep_line.g) < std::abs(shallow_line.g))
    restart_secant(shallow_line, steep_line);
  else
    restart_secant(steep_line, shallow_line);
  // The secant start narrows the pair; it keeps the narrowed bracket when
  // the budget runs out.
  if (start == Bracket::Secant)
    (void)secant_bracket(shallow.slope, steep.slope, steep, shallow, false);
  adopt(steep, shallow);
}

void SearchState::solve_figure18_line(double slope, bool is_steep,
                                      Side& side) {
  const std::int64_t before = counters_.intersect_solves;
  side.slope = solve_bracket_line(compiled_, n_, slope, is_steep, &counters_,
                                  side.sizes, side.total);
  figure18_lines_ += static_cast<int>(
      (counters_.intersect_solves - before) /
      static_cast<std::int64_t>(compiled_.size()));
}

void SearchState::adopt(Side& steep, Side& shallow) {
  bracket_.lo_slope = shallow.slope;
  bracket_.hi_slope = steep.slope;
  small_ = std::move(steep.sizes);
  large_ = std::move(shallow.sizes);
}

void SearchState::finish(PartitionResult& result) {
  PartitionStats& stats = result.stats;
  stats.iterations = iterations_;
  stats.intersections = intersections_;
  stats.final_slope = bracket_.hi_slope;
  stats.search_speed_evals = counters_.speed_evals;
  stats.search_intersect_solves = counters_.intersect_solves;
  // Only the steep line feeds the fine-tune: free the other line buffers
  // before it allocates its own.
  large_ = std::vector<double>();
  scratch_ = std::vector<double>();
  result.distribution = fine_tune(compiled_, n_, small_, &counters_);
  stats.speed_evals = counters_.speed_evals;
  stats.intersect_solves = counters_.intersect_solves;
  stats.bracket_saturations = bracket_saturations();
  stats.warmstart = warmstart_;
  stats.warm_probes = warm_probes_;
  stats.figure18_lines = figure18_lines_;
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
  scratch_.resize(compiled_.size());
  sizes_at(compiled_, slope, &counters_, scratch_);
  intersections_ += static_cast<int>(scratch_.size());
  const double sum = line_sum(scratch_);
  remember({slope, std::log(sum) - log_n_});
  bool kept_low;
  if (sum < static_cast<double>(n_)) {
    // Line too steep: the optimum lies in the shallower (lower) region.
    bracket_.hi_slope = slope;
    small_.swap(scratch_);
    kept_low = true;
  } else {
    bracket_.lo_slope = slope;
    large_.swap(scratch_);
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
    slope = compiled_.speed(best, m) / m;
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
