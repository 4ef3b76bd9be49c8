#include "core/bounded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/detail/search_state.hpp"

namespace fpm::core {

namespace {

std::vector<std::int64_t> bounds_or_capacity(const PartitionPolicy& policy,
                                             const CompiledSpeedList& speeds) {
  if (!policy.bounds.empty()) return policy.bounds;
  // Default capacity: the modelled range end of each curve (the paper's
  // point b — the size at which the processor pages itself to a halt).
  std::vector<std::int64_t> bounds;
  bounds.reserve(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    bounds.push_back(
        static_cast<std::int64_t>(std::ceil(speeds.base(i)->max_size())));
  return bounds;
}

}  // namespace

PartitionResult partition_bounded(const SpeedList& speeds, std::int64_t n,
                                  const PartitionPolicy& policy) {
  return partitioner_registry().run(kAlgorithmBounded, speeds, n, policy);
}

PartitionResult detail::bounded_from(Bracket start,
                                     const CompiledSpeedList& speeds,
                                     std::int64_t n,
                                     const PartitionPolicy& policy) {
  const std::vector<std::int64_t> bounds = bounds_or_capacity(policy, speeds);
  if (speeds.size() != bounds.size())
    throw std::invalid_argument("partition_bounded: size mismatch");
  std::int64_t capacity = 0;
  for (const std::int64_t b : bounds) {
    if (b < 0) throw std::invalid_argument("partition_bounded: bound < 0");
    capacity += b;
  }
  if (capacity < n)
    throw std::invalid_argument("partition_bounded: bounds cannot hold n");

  PartitionResult result;
  result.stats.algorithm = kAlgorithmBounded;
  result.distribution.counts.assign(speeds.size(), 0);

  std::vector<std::size_t> active(speeds.size());
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::int64_t remaining = n;

  PartitionPolicy inner = policy;
  bool first_round = true;
  while (remaining > 0 && !active.empty()) {
    PartitionResult sub_result;
    if (first_round) {
      // The hint describes the full unclamped problem; the residual rounds
      // solve a different one (fewer processors, fewer elements), so only
      // the first inner search warm-starts.
      sub_result = combined_from(start, speeds, remaining, inner);
      result.stats.warmstart = sub_result.stats.warmstart;
      result.stats.iterations_saved = sub_result.stats.iterations_saved;
      inner.hint.reset();
      first_round = false;
    } else {
      SpeedList sub;
      sub.reserve(active.size());
      for (const std::size_t i : active) sub.push_back(speeds.base(i));
      sub_result = combined_from(start, CompiledSpeedList::compile(sub),
                                 remaining, inner);
    }
    add_counters(result.stats, sub_result.stats);
    result.stats.final_slope = sub_result.stats.final_slope;
    result.stats.switched_to_modified |= sub_result.stats.switched_to_modified;

    // Clamp the over-bound processors; everyone else keeps the tentative
    // share only if no clamping happened (otherwise the residual is
    // re-partitioned among the unclamped).
    std::vector<std::size_t> still_active;
    bool clamped_any = false;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      const std::int64_t share = sub_result.distribution.counts[k];
      if (share >= bounds[i] && result.distribution.counts[i] == 0) {
        result.distribution.counts[i] = bounds[i];
        remaining -= bounds[i];
        clamped_any = true;
      } else {
        still_active.push_back(i);
      }
    }
    if (!clamped_any) {
      for (std::size_t k = 0; k < active.size(); ++k)
        result.distribution.counts[active[k]] =
            sub_result.distribution.counts[k];
      remaining = 0;
      break;
    }
    active = std::move(still_active);
  }
  if (remaining > 0) {
    // All processors clamped but capacity >= n means round-off left some
    // elements; spread them within the remaining slack deterministically.
    for (std::size_t i = 0; i < speeds.size() && remaining > 0; ++i) {
      const std::int64_t slack = bounds[i] - result.distribution.counts[i];
      const std::int64_t take = std::min(slack, remaining);
      result.distribution.counts[i] += take;
      remaining -= take;
    }
  }
  assert(result.distribution.total() == n);
  return result;
}

Distribution exact_optimum_bounded(const SpeedList& speeds, std::int64_t n,
                                   std::span<const std::int64_t> bounds) {
  if (speeds.size() != bounds.size())
    throw std::invalid_argument("exact_optimum_bounded: size mismatch");
  std::int64_t capacity = 0;
  for (const std::int64_t b : bounds) capacity += b;
  if (capacity < n)
    throw std::invalid_argument("exact_optimum_bounded: infeasible");

  const auto cap = [&](std::size_t i, double T) -> std::int64_t {
    const SpeedFunction& f = *speeds[i];
    const std::int64_t limit = std::min<std::int64_t>(bounds[i], n);
    if (limit == 0 || f.time(1.0) > T) return 0;
    std::int64_t lo = 1;
    std::int64_t hi = limit;
    if (f.time(static_cast<double>(hi)) <= T) return hi;
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (f.time(static_cast<double>(mid)) <= T)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  };
  const auto total_cap = [&](double T) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < speeds.size(); ++i) sum += cap(i, T);
    return sum;
  };

  // Feasible upper bound: every processor filled to its bound must cover n,
  // so the largest per-processor time at the bound is feasible.
  double t_hi = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    t_hi = std::max(t_hi, speeds[i]->time(static_cast<double>(
                              std::min<std::int64_t>(bounds[i], n))));
  double t_lo = 0.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (mid <= t_lo || mid >= t_hi) break;
    if (total_cap(mid) >= n)
      t_hi = mid;
    else
      t_lo = mid;
  }

  Distribution d;
  d.counts.resize(speeds.size());
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = cap(i, t_hi);
    sum += d.counts[i];
  }
  // Trim overshoot from the slowest finishers.
  while (sum > n) {
    std::size_t worst = 0;
    double worst_t = -1.0;
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      if (d.counts[i] == 0) continue;
      const double t = speeds[i]->time(static_cast<double>(d.counts[i]));
      if (t > worst_t) {
        worst_t = t;
        worst = i;
      }
    }
    --d.counts[worst];
    --sum;
  }
  return d;
}

std::vector<std::size_t> partition_weighted_contiguous(
    const SpeedList& speeds, std::span<const double> weights) {
  if (speeds.empty())
    throw std::invalid_argument("partition_weighted_contiguous: no speeds");
  for (const double w : weights)
    if (!(w > 0.0))
      throw std::invalid_argument(
          "partition_weighted_contiguous: weights must be > 0");
  const std::size_t p = speeds.size();
  const std::size_t m = weights.size();

  std::vector<double> prefix(m + 1, 0.0);
  for (std::size_t j = 0; j < m; ++j) prefix[j + 1] = prefix[j] + weights[j];

  // Feasibility sweep: can the whole sequence be consumed with every range
  // finishing within T? Greedily give each processor the longest prefix it
  // can complete (the range time is non-decreasing in the prefix length by
  // the documented precondition).
  const auto feasible = [&](double T, std::vector<std::size_t>* out) {
    std::size_t start = 0;
    if (out) out->assign(p + 1, m);
    if (out) (*out)[0] = 0;
    for (std::size_t i = 0; i < p; ++i) {
      // Binary search the largest end with time(start, end) <= T.
      std::size_t lo = start;  // feasible (empty range: time 0)
      std::size_t hi = m;
      const auto range_time = [&](std::size_t end) {
        const double W = prefix[end] - prefix[start];
        const double c = static_cast<double>(end - start);
        return c == 0.0 ? 0.0 : W / speeds[i]->speed(c);
      };
      if (range_time(hi) <= T) {
        lo = hi;
      } else {
        while (hi - lo > 1) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (range_time(mid) <= T)
            lo = mid;
          else
            hi = mid;
        }
      }
      start = lo;
      if (out) (*out)[i + 1] = start;
      if (start == m) {
        if (out)
          for (std::size_t k = i + 1; k <= p; ++k) (*out)[k] = m;
        return true;
      }
    }
    return start == m;
  };

  // Makespan bisection. Upper bound: the fastest processor taking all.
  double t_hi = std::numeric_limits<double>::infinity();
  for (const SpeedFunction* f : speeds)
    t_hi = std::min(t_hi, prefix[m] / f->speed(static_cast<double>(m)));
  if (!feasible(t_hi, nullptr)) {
    // Precondition violated or degenerate curves: fall back to a generous
    // bound that is always feasible (slowest processor alone).
    for (const SpeedFunction* f : speeds)
      t_hi = std::max(t_hi, prefix[m] / f->speed(static_cast<double>(m)));
  }
  double t_lo = 0.0;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (mid <= t_lo || mid >= t_hi) break;
    if (feasible(mid, nullptr))
      t_hi = mid;
    else
      t_lo = mid;
  }
  std::vector<std::size_t> boundaries;
  const bool ok = feasible(t_hi, &boundaries);
  assert(ok);
  (void)ok;
  return boundaries;
}

double weighted_makespan(const SpeedList& speeds,
                         std::span<const double> weights,
                         std::span<const std::size_t> boundaries) {
  assert(boundaries.size() == speeds.size() + 1);
  std::vector<double> prefix(weights.size() + 1, 0.0);
  for (std::size_t j = 0; j < weights.size(); ++j)
    prefix[j + 1] = prefix[j] + weights[j];
  double worst = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const std::size_t a = boundaries[i];
    const std::size_t b = boundaries[i + 1];
    if (b <= a) continue;
    const double W = prefix[b] - prefix[a];
    const double c = static_cast<double>(b - a);
    worst = std::max(worst, W / speeds[i]->speed(c));
  }
  return worst;
}

}  // namespace fpm::core
