#include "core/finetune.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace fpm::core {
namespace {

double time_at(const SpeedFunction& f, std::int64_t x) {
  return f.time(static_cast<double>(x));
}

/// Awards `deficit` single elements, each to the processor whose
/// post-award completion time is smallest.
void award_greedily(const SpeedList& speeds, Distribution& d,
                    std::int64_t deficit) {
  using Entry = std::pair<double, std::size_t>;  // (post-award time, index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    heap.emplace(time_at(*speeds[i], d.counts[i] + 1), i);
  while (deficit > 0) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++d.counts[i];
    --deficit;
    heap.emplace(time_at(*speeds[i], d.counts[i] + 1), i);
  }
}

}  // namespace

Distribution fine_tune(const SpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes) {
  return fine_tune(CompiledSpeedList::compile(speeds), n, small_sizes,
                   nullptr);
}

namespace {

/// time(x) over one compiled entry, counted as one speed evaluation (x >= 1
/// here, so the time() zero-guard of SpeedFunction::time never fires).
double compiled_time_at(const CompiledSpeedList& speeds,
                        EvalCounters* counters, std::size_t i,
                        std::int64_t x) {
  if (counters) ++counters->speed_evals;
  const double xd = static_cast<double>(x);
  return xd / speeds.speed(i, xd);
}

}  // namespace

Distribution fine_tune(const CompiledSpeedList& speeds, std::int64_t n,
                       std::span<const double> small_sizes,
                       EvalCounters* counters) {
  if (speeds.size() != small_sizes.size())
    throw std::invalid_argument("fine_tune: size mismatch");
  Distribution d;
  d.counts.resize(speeds.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(std::floor(small_sizes[i])));
    assigned += d.counts[i];
  }
  using Entry = std::pair<double, std::size_t>;
  if (assigned > n) {
    // Defensive: the steep line should under-fill, but round-off can leave
    // an excess of a few elements; shed them from the slowest finishers.
    // Rare, so it stays per-entry.
    std::priority_queue<Entry> heap;  // max by current completion time
    for (std::size_t i = 0; i < speeds.size(); ++i)
      if (d.counts[i] > 0)
        heap.emplace(compiled_time_at(speeds, counters, i, d.counts[i]), i);
    for (std::int64_t excess = assigned - n; excess > 0; --excess) {
      assert(!heap.empty());
      const auto [t, i] = heap.top();
      heap.pop();
      --d.counts[i];
      if (d.counts[i] > 0)
        heap.emplace(compiled_time_at(speeds, counters, i, d.counts[i]), i);
    }
    return d;
  }
  // Seed the award heap from one batched sweep over the post-award sizes
  // (counts + 1 >= 1, all in-domain), solved in place. The heap sees the
  // same (time, index) pairs in the same i-ascending push order as
  // award_greedily over the virtual models, so with the scalar kernels the
  // pop sequence — and the allocation — is bit-identical to it. The heap
  // never holds more than p entries, so it is reserved at p, and the sweep's
  // buffer is freed before the award loop.
  std::vector<Entry> storage;
  storage.reserve(speeds.size());
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  {
    std::vector<double> sp(speeds.size());
    for (std::size_t i = 0; i < speeds.size(); ++i)
      sp[i] = static_cast<double>(d.counts[i] + 1);
    speeds_at(speeds, sp, counters, sp);
    for (std::size_t i = 0; i < speeds.size(); ++i)
      heap.emplace(static_cast<double>(d.counts[i] + 1) / sp[i], i);
  }
  for (std::int64_t deficit = n - assigned; deficit > 0; --deficit) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++d.counts[i];
    heap.emplace(compiled_time_at(speeds, counters, i, d.counts[i] + 1), i);
  }
  return d;
}

Distribution greedy_from_zero(const SpeedList& speeds, std::int64_t n) {
  if (speeds.empty()) throw std::invalid_argument("greedy_from_zero: no speeds");
  Distribution d;
  d.counts.assign(speeds.size(), 0);
  award_greedily(speeds, d, n);
  return d;
}

Distribution exact_optimum(const SpeedList& speeds, std::int64_t n) {
  if (speeds.empty()) throw std::invalid_argument("exact_optimum: no speeds");
  Distribution d;
  d.counts.assign(speeds.size(), 0);
  if (n <= 0) return d;

  // cap(T): the largest x in [0, n] a processor can finish within time T.
  // Well-defined because x/s(x) is non-decreasing in x.
  const auto cap = [n](const SpeedFunction& f, double T) -> std::int64_t {
    if (time_at(f, 1) > T) return 0;
    std::int64_t lo = 1;  // feasible
    std::int64_t hi = n;  // maybe infeasible
    if (time_at(f, hi) <= T) return hi;
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (time_at(f, mid) <= T)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  };
  const auto total_cap = [&](double T) {
    std::int64_t sum = 0;
    for (const SpeedFunction* f : speeds) sum += cap(*f, T);
    return sum;
  };

  // Feasible upper bound: the fastest single processor taking everything.
  double t_hi = std::numeric_limits<double>::infinity();
  for (const SpeedFunction* f : speeds) t_hi = std::min(t_hi, time_at(*f, n));
  double t_lo = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (mid <= t_lo || mid >= t_hi) break;
    if (total_cap(mid) >= n)
      t_hi = mid;
    else
      t_lo = mid;
  }

  std::int64_t sum = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = cap(*speeds[i], t_hi);
    sum += d.counts[i];
  }
  assert(sum >= n);
  // Trim the overshoot from the slowest finishers; every trim keeps the
  // makespan at or below t_hi, and reducing the current maximum first keeps
  // the final makespan minimal among completions of this cap vector.
  using Entry = std::pair<double, std::size_t>;
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    if (d.counts[i] > 0) heap.emplace(time_at(*speeds[i], d.counts[i]), i);
  for (std::int64_t excess = sum - n; excess > 0; --excess) {
    const auto [t, i] = heap.top();
    heap.pop();
    --d.counts[i];
    if (d.counts[i] > 0) heap.emplace(time_at(*speeds[i], d.counts[i]), i);
  }
  return d;
}

}  // namespace fpm::core
