#include "core/slo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <vector>

#include "core/compiled.hpp"

namespace fpm::core {

const char* to_string(Priority priority) noexcept {
  switch (priority) {
    case Priority::Low:
      return "low";
    case Priority::Normal:
      return "normal";
    case Priority::High:
      return "high";
  }
  return "?";
}

const char* to_string(ServeStatus status) noexcept {
  switch (status) {
    case ServeStatus::Ok:
      return "ok";
    case ServeStatus::Degraded:
      return "degraded";
    case ServeStatus::Shed:
      return "shed";
  }
  return "?";
}

const char* to_string(ShedReason reason) noexcept {
  switch (reason) {
    case ShedReason::None:
      return "none";
    case ShedReason::Admission:
      return "admission";
    case ShedReason::QueueFull:
      return "queue_full";
    case ShedReason::Expired:
      return "expired";
    case ShedReason::Shutdown:
      return "shutdown";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// degraded_answer
// ---------------------------------------------------------------------------

namespace {

/// Log-width the certificate's bracket must close to, ln2/64 (six halvings
/// of an octave): the certified slope is then at most 2^(1/64) times the
/// continuous optimum.
constexpr double kBoundBracket = std::numbers::ln2 / 64.0;
/// Secant probes aim this far past their root estimate, on the far side
/// from the last probe, so an accurate estimate closes the bracket with
/// the next probe (two aimed probes straddle the root within one width).
constexpr double kAim = 0.48 * kBoundBracket;
/// Probes after which the search stops aiming and bisects in log space
/// (doubles, while no line with total <= n is known). Every ensemble and
/// synthetic fleet measured settles within six probes (tests/test_slo.cpp
/// pins the mean and the maximum), so this only bounds pathological curves.
constexpr int kSecantProbes = 8;
/// Hard cap on certificate lines; reachable only without a free steep line
/// (some count is zero) on a total that never drops to n.
constexpr int kMaxProbes = 200;

/// 128-bit intermediate for the exact prev_i * n rescale products.
__extension__ using int128 = __int128;

}  // namespace

std::optional<DegradedAnswer> degraded_answer(
    const SpeedList& speeds, std::int64_t n,
    std::span<const std::int64_t> prev_counts, std::int64_t prev_n,
    const CompiledSpeedList* compiled) {
  const std::size_t p = speeds.size();
  if (p == 0 || n < 1 || prev_n < 1 || prev_counts.size() != p)
    return std::nullopt;
  std::int64_t prev_total = 0;
  for (const std::int64_t c : prev_counts) {
    if (c < 0) return std::nullopt;
    prev_total += c;
  }
  if (prev_total < 1) return std::nullopt;

  // Linear rescale by n/prev_total with largest-remainder rounding: each
  // processor gets floor(prev_i * n / prev_total), and the r < p leftover
  // elements go to the largest fractional remainders (ties to lower index).
  // 128-bit intermediates keep prev_i * n exact for any int64 workload.
  DegradedAnswer out;
  out.distribution.counts.assign(p, 0);
  std::vector<std::pair<std::int64_t, std::size_t>> remainders;  // (-rem, i)
  remainders.reserve(p);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const auto scaled = static_cast<int128>(prev_counts[i]) * n;
    const auto whole = static_cast<std::int64_t>(scaled / prev_total);
    const auto rem = static_cast<std::int64_t>(scaled % prev_total);
    out.distribution.counts[i] = whole;
    assigned += whole;
    remainders.emplace_back(-rem, i);
  }
  // The pairs are unique, so the `leftover` smallest form one set:
  // selecting it gives the counts a full sort would.
  const auto leftover = static_cast<std::size_t>(n - assigned);  // < p
  if (leftover > 0) {
    const auto nth = remainders.begin() + static_cast<std::ptrdiff_t>(leftover);
    std::nth_element(remainders.begin(), nth, remainders.end());
    for (auto it = remainders.begin(); it != nth; ++it)
      ++out.distribution.counts[it->second];
  }

  // One pass over the answer: its makespan (the same loop as makespan(),
  // so bit-identical to it), its fastest processor's time, and the speed
  // sum the first probe is aimed with.
  double slowest = 0.0;
  double fastest = std::numeric_limits<double>::infinity();
  double speed_sum = 0.0;
  bool every_timed = true;
  for (std::size_t i = 0; i < p; ++i) {
    const auto x = static_cast<double>(out.distribution.counts[i]);
    if (x <= 0.0) {
      every_timed = false;
      continue;
    }
    const double s = speeds[i]->speed(x);
    const double t = x / s;
    slowest = std::max(slowest, t);
    if (t > 0.0)
      fastest = std::min(fastest, t);
    else
      every_timed = false;  // NaN speed: no certificate from this answer
    speed_sum += s;
  }
  out.makespan = slowest;
  if (!std::isfinite(out.makespan) || out.makespan <= 0.0)
    return std::nullopt;

  // Lower bound on the exact optimum: any feasible allocation of n elements
  // has makespan >= 1/c for every slope c with total_size_at(c) <= n
  // (single-crossing: time_i <= T puts every point on or above the slope-
  // 1/T line, so n = sum counts <= total_size_at(1/T)). Two such lines are
  // free. The answer's own line 1/M has total >= n. The line through its
  // fastest processor, 1/t_min, has total <= n when every count is
  // positive: a processor's time grows with its size, so an allocation
  // finishing before t_min gives each processor fewer elements than it has
  // now, fewer than n in all. Between them the search runs a log-space
  // secant on ln total(c) - ln n, opened at the mean-speed line
  // sum_i s_i(x_i) / n (exact for constant speeds), until the bracket's
  // log-width is at most kBoundBracket. Without a caller's compilation the
  // model list is compiled only when a line has to be solved.
  const double nd = static_cast<double>(n);
  double lo = -std::log(out.makespan);  // ln c with total >= n
  double hi = std::numeric_limits<double>::infinity();  // ln c, total <= n
  double c_hi = hi;
  if (every_timed) {
    hi = -std::log(fastest);
    c_hi = 1.0 / fastest;
  }
  std::optional<CompiledSpeedList> own;
  double u = std::log(speed_sum / nd);  // the next probe, ln c
  double prev_u = std::numeric_limits<double>::quiet_NaN();
  double prev_g = prev_u;
  for (int probe = 0; hi - lo > kBoundBracket; ++probe) {
    if (probe == kMaxProbes) return std::nullopt;
    if (probe >= kSecantProbes || !(u > lo && u < hi))
      u = std::isfinite(hi) ? 0.5 * (lo + hi) : lo + std::numbers::ln2;
    const double c = std::exp(u);
    if (!(c > 0.0) || !std::isfinite(c)) return std::nullopt;
    if (!compiled) compiled = &own.emplace(CompiledSpeedList::compile(speeds));
    const double total = total_size_at(*compiled, c, nullptr);
    const bool steep = total <= nd;  // one-sided: NaN counts as shallow
    if (steep) {
      hi = u;
      c_hi = c;
    } else {
      lo = u;
    }
    // Root estimate: the secant through the last two probes, or slope -1
    // (constant speeds) after the first. Aim past it, snapping to a bracket
    // end when the root lies within one width of it.
    const double g = std::log(total / nd);
    double slope = (g - prev_g) / (u - prev_u);
    if (!(slope < 0.0) || !std::isfinite(slope)) slope = -1.0;
    const double root = u - g / slope;
    prev_u = u;
    prev_g = g;
    if (root - lo <= 2.0 * kAim)
      u = lo + 2.0 * kAim;
    else if (hi - root <= 2.0 * kAim)
      u = hi - 2.0 * kAim;
    else
      u = steep ? root - kAim : root + kAim;
  }
  // makespan >= 1/c_hi would make the bound negative only through floating
  // noise; clamp at zero (the answer cannot beat the certified optimum).
  out.error_bound = std::max(0.0, out.makespan * c_hi - 1.0);
  return out;
}

// ---------------------------------------------------------------------------
// QueueDelayEstimator
// ---------------------------------------------------------------------------

QueueDelayEstimator::QueueDelayEstimator(double alpha) noexcept
    : alpha_(alpha > 0.0 && alpha <= 1.0 ? alpha : 0.2) {}

double QueueDelayEstimator::read(const Cell& cell) noexcept {
  return cell.count.load(std::memory_order_relaxed) > 0
             ? cell.ewma.load(std::memory_order_relaxed)
             : -1.0;
}

void QueueDelayEstimator::update(Cell& cell, double service_s) noexcept {
  const std::int64_t seen = cell.count.load(std::memory_order_relaxed);
  const double old = cell.ewma.load(std::memory_order_relaxed);
  const double next =
      seen == 0 ? service_s : alpha_ * service_s + (1.0 - alpha_) * old;
  cell.ewma.store(next, std::memory_order_relaxed);
  cell.count.store(seen + 1, std::memory_order_relaxed);
}

void QueueDelayEstimator::record(Priority priority, double service_s) noexcept {
  if (!(service_s >= 0.0) || !std::isfinite(service_s)) return;
  update(per_class_[static_cast<std::size_t>(priority)], service_s);
  update(all_, service_s);
}

double QueueDelayEstimator::service_estimate(
    Priority priority) const noexcept {
  const double mine = read(per_class_[static_cast<std::size_t>(priority)]);
  if (mine >= 0.0) return mine;
  const double any = read(all_);
  return any >= 0.0 ? any : 0.0;
}

double QueueDelayEstimator::queue_delay(Priority priority,
                                        std::size_t jobs_ahead,
                                        unsigned workers) const noexcept {
  return service_estimate(priority) * static_cast<double>(jobs_ahead) /
         static_cast<double>(std::max(1u, workers));
}

std::int64_t QueueDelayEstimator::samples(Priority priority) const noexcept {
  return per_class_[static_cast<std::size_t>(priority)].count.load(
      std::memory_order_relaxed);
}

}  // namespace fpm::core
