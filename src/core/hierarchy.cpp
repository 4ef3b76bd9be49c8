#include "core/hierarchy.hpp"

#include <cassert>
#include <stdexcept>

#include "core/detail/search_state.hpp"
#include "core/policy.hpp"

namespace fpm::core {

AggregateSpeed::AggregateSpeed(SpeedList members)
    : members_(std::move(members)) {
  if (members_.empty())
    throw std::invalid_argument("AggregateSpeed: empty group");
  for (const SpeedFunction* m : members_)
    if (m == nullptr)
      throw std::invalid_argument("AggregateSpeed: null member");
}

double AggregateSpeed::max_size() const {
  double total = 0.0;
  for (const SpeedFunction* m : members_) total += m->max_size();
  return total;
}

double AggregateSpeed::slope_for(double x) const {
  assert(x > 0.0);
  // Bracket the slope: N(c) is strictly decreasing, so expand around a
  // heuristic start until N straddles x, then bisect.
  double c_hi = members_.front()->ratio(
      std::min(x, members_.front()->max_size()));
  double c_lo = c_hi;
  for (int i = 0; i < 256 && total_size_at(members_, c_hi) > x; ++i)
    c_hi *= 2.0;
  for (int i = 0; i < 256 && total_size_at(members_, c_lo) < x; ++i)
    c_lo *= 0.5;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (c_lo + c_hi);
    if (mid <= c_lo || mid >= c_hi) break;
    if (total_size_at(members_, mid) > x)
      c_lo = mid;  // line too shallow: group absorbs more than x
    else
      c_hi = mid;
  }
  return 0.5 * (c_lo + c_hi);
}

double AggregateSpeed::speed(double x) const {
  if (x <= 0.0) {
    // Limit x -> 0+: every member's share -> 0, all at their top speeds;
    // the group behaves like the sum of small-size speeds.
    double sum = 0.0;
    for (const SpeedFunction* m : members_) sum += m->speed(0.0);
    return sum;
  }
  return x * slope_for(x);
}

double AggregateSpeed::intersect(double slope) const {
  assert(slope > 0.0);
  return total_size_at(members_, slope);
}

std::vector<std::int64_t> HierarchicalResult::flatten() const {
  std::vector<std::int64_t> all;
  for (const Distribution& d : within)
    all.insert(all.end(), d.counts.begin(), d.counts.end());
  return all;
}

HierarchicalResult partition_hierarchical(
    const std::vector<SpeedList>& groups, std::int64_t n,
    const PartitionPolicy& policy) {
  if (groups.empty())
    throw std::invalid_argument("partition_hierarchical: no groups");
  if (!policy.bounds.empty())
    throw std::invalid_argument(
        "partition_hierarchical: per-processor bounds do not map onto the "
        "group/member levels");
  std::vector<AggregateSpeed> aggregates;
  aggregates.reserve(groups.size());
  for (const SpeedList& members : groups) aggregates.emplace_back(members);

  SpeedList top;
  top.reserve(aggregates.size());
  for (const AggregateSpeed& a : aggregates) top.push_back(&a);

  HierarchicalResult result;
  PartitionResult top_result = partition(top, n, policy);
  result.group_counts = std::move(top_result.distribution.counts);
  result.stats = std::move(top_result.stats);
  result.stats.algorithm = kAlgorithmHierarchical;

  result.within.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (result.group_counts[g] == 0) {
      Distribution empty;
      empty.counts.assign(groups[g].size(), 0);
      result.within.push_back(std::move(empty));
      continue;
    }
    PartitionResult inner = partition(groups[g], result.group_counts[g], policy);
    detail::add_counters(result.stats, inner.stats);
    result.within.push_back(std::move(inner.distribution));
  }
  return result;
}

}  // namespace fpm::core
