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

using Award = std::pair<double, std::size_t>;  // (post-award time, index)

/// Awards `deficit` single elements from an award heap seeded with `first`
/// (each processor's first post-award time) in index order: each pop is
/// the smallest (time, index) pair, and its processor's next post-award
/// time replaces it. With the scalar kernels the pop sequence, and the
/// allocation, is bit-identical to award_greedily over the virtual models.
void award_from_heap(const CompiledSpeedList& speeds, EvalCounters* counters,
                     std::span<const double> first, std::int64_t deficit,
                     std::vector<std::int64_t>& counts) {
  std::vector<Award> storage;
  storage.reserve(first.size());
  std::priority_queue<Award, std::vector<Award>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  for (std::size_t i = 0; i < first.size(); ++i) heap.emplace(first[i], i);
  for (; deficit > 0; --deficit) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++counts[i];
    heap.emplace(compiled_time_at(speeds, counters, i, counts[i] + 1), i);
  }
}

/// One candidate award of the selection: processor `index`'s post-award
/// time at counts[index] + rank, and `rank` (> 0) while the processor may
/// still offer its next time (0 once it offered it).
struct Offer {
  double time;
  std::uint32_t index;
  std::uint32_t rank;
};

/// Selection rounds before select_awards hands over to the heap.
constexpr int kSelectionRounds = 16;

/// The heap's awards found by selection. Each processor offers a chain of
/// post-award times; when every chain is non-decreasing, the heap's
/// `deficit` pops are the `deficit` smallest (time, index) pairs over all
/// chains, a unique set of counts. Each round selects the `deficit`
/// smallest offers (nth_element) and drops the rest, which lie above every
/// later threshold; each processor whose offers were all selected then
/// offers its next time, which stays only if it falls below the round's
/// threshold. The rounds end when none does. Returns false, with `counts`
/// untouched, on a deficit above p, a time that is not finite or falls
/// along a chain, more offers than p, or more than kSelectionRounds
/// rounds: the heap then awards.
bool select_awards(const CompiledSpeedList& speeds, EvalCounters* counters,
                   std::span<const double> first, std::int64_t deficit,
                   std::vector<std::int64_t>& counts) {
  const std::size_t p = first.size();
  if (deficit == 0) return true;
  if (deficit > static_cast<std::int64_t>(p)) return false;
  for (const double t : first)
    if (!std::isfinite(t)) return false;
  const auto k = static_cast<std::size_t>(deficit);
  const auto before = [](const Offer& a, const Offer& b) {
    return a.time < b.time || (a.time == b.time && a.index < b.index);
  };
  std::vector<Offer> pool(p);
  for (std::size_t i = 0; i < p; ++i)
    pool[i] = {first[i], static_cast<std::uint32_t>(i), 1};
  std::size_t live = p;
  for (int round = 0;; ++round) {
    std::nth_element(pool.begin(), pool.begin() + (k - 1),
                     pool.begin() + static_cast<std::ptrdiff_t>(live),
                     before);
    const Offer threshold = pool[k - 1];
    live = k;
    for (std::size_t j = 0; j < k; ++j) {
      const Offer o = pool[j];
      if (o.rank == 0) continue;
      pool[j].rank = 0;
      const double t = compiled_time_at(speeds, counters, o.index,
                                        counts[o.index] + o.rank + 1);
      if (!(t >= o.time) || !std::isfinite(t)) return false;
      const Offer next{t, o.index, o.rank + 1};
      if (!before(next, threshold)) continue;
      if (live == p || round == kSelectionRounds) return false;
      pool[live++] = next;
    }
    if (live == k) break;
  }
  for (std::size_t j = 0; j < k; ++j) ++counts[pool[j].index];
  return true;
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
  if (assigned > n) {
    // Defensive: the steep line should under-fill, but round-off can leave
    // an excess of a few elements; shed them from the slowest finishers.
    // Rare, so it stays per-entry.
    std::priority_queue<Award> heap;  // max by current completion time
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
  // One batched sweep over the post-award sizes (counts + 1 >= 1, all
  // in-domain), solved in place: every processor's first post-award time.
  std::vector<double> first(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    first[i] = static_cast<double>(d.counts[i] + 1);
  speeds_at(speeds, first, counters, first);
  for (std::size_t i = 0; i < speeds.size(); ++i)
    first[i] = static_cast<double>(d.counts[i] + 1) / first[i];
  const std::int64_t deficit = n - assigned;
  if (!select_awards(speeds, counters, first, deficit, d.counts))
    award_from_heap(speeds, counters, first, deficit, d.counts);
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
