#include "core/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "core/compiled.hpp"

namespace fpm::core {

std::int64_t Distribution::total() const noexcept {
  return std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
}

std::vector<double> sizes_at(const SpeedList& speeds, double slope) {
  std::vector<double> xs(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    xs[i] = speeds[i]->intersect(slope);
  return xs;
}

double total_size_at(const SpeedList& speeds, double slope) {
  double sum = 0.0;
  for (const SpeedFunction* f : speeds) sum += f->intersect(slope);
  return sum;
}

SlopeBracket detect_bracket(const SpeedList& speeds, std::int64_t n,
                            std::vector<double>* small,
                            std::vector<double>* large) {
  return detect_bracket(CompiledSpeedList::compile(speeds), n, nullptr, small,
                        large);
}

std::optional<PartitionHint> next_hint(const PartitionResult& result,
                                       std::int64_t n,
                                       const PartitionHint* previous,
                                       std::uint64_t fingerprint) {
  const bool warm =
      previous != nullptr && result.stats.warmstart == WarmStart::Hit;
  const PartitionHint hint{
      .slope = result.stats.final_slope,
      .n = n,
      .fingerprint = fingerprint,
      .baseline_iterations =
          warm ? previous->baseline_iterations : result.stats.iterations};
  if (!hint.usable()) return std::nullopt;
  return hint;
}

Distribution partition_even(std::int64_t n, std::size_t p) {
  if (p == 0) throw std::invalid_argument("partition_even: p must be >= 1");
  Distribution d;
  d.counts.assign(p, n / static_cast<std::int64_t>(p));
  const std::int64_t rem = n % static_cast<std::int64_t>(p);
  for (std::int64_t i = 0; i < rem; ++i) ++d.counts[static_cast<std::size_t>(i)];
  return d;
}

Distribution partition_single_number(std::int64_t n,
                                     std::span<const double> speeds) {
  if (speeds.empty())
    throw std::invalid_argument("partition_single_number: no speeds");
  double total_speed = 0.0;
  for (const double s : speeds) {
    if (!(s > 0.0))
      throw std::invalid_argument(
          "partition_single_number: speeds must be positive");
    total_speed += s;
  }
  Distribution d;
  d.counts.resize(speeds.size());
  // Floor of the proportional share, then award the remaining elements one
  // at a time to the processor whose completion time after the award is
  // smallest — the standard O(p log p) heterogeneous rounding.
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    d.counts[i] = static_cast<std::int64_t>(
        std::floor(static_cast<double>(n) * speeds[i] / total_speed));
    assigned += d.counts[i];
  }
  using Entry = std::pair<double, std::size_t>;  // (post-award time, index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    heap.emplace(static_cast<double>(d.counts[i] + 1) / speeds[i], i);
  for (std::int64_t left = n - assigned; left > 0; --left) {
    const auto [t, i] = heap.top();
    heap.pop();
    ++d.counts[i];
    heap.emplace(static_cast<double>(d.counts[i] + 1) / speeds[i], i);
  }
  return d;
}

Distribution partition_single_number_at(const SpeedList& speeds,
                                        std::int64_t n,
                                        double reference_size) {
  std::vector<double> constants(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    constants[i] = speeds[i]->speed(reference_size);
  return partition_single_number(n, constants);
}

double makespan(const SpeedList& speeds, const Distribution& d) {
  assert(speeds.size() == d.counts.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const auto x = static_cast<double>(d.counts[i]);
    if (x <= 0.0) continue;
    worst = std::max(worst, x / speeds[i]->speed(x));
  }
  return worst;
}

std::vector<double> execution_times(const SpeedList& speeds,
                                    const Distribution& d) {
  assert(speeds.size() == d.counts.size());
  std::vector<double> ts(speeds.size(), 0.0);
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const auto x = static_cast<double>(d.counts[i]);
    if (x > 0.0) ts[i] = x / speeds[i]->speed(x);
  }
  return ts;
}

}  // namespace fpm::core
