#include "apps/vgb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/compiled.hpp"
#include "core/policy.hpp"

namespace fpm::apps {

std::int64_t VgbDistribution::owned_blocks_from(int proc,
                                                std::int64_t first_block) const {
  std::int64_t count = 0;
  for (std::size_t j = static_cast<std::size_t>(std::max<std::int64_t>(
           first_block, 0));
       j < block_owner.size(); ++j)
    if (block_owner[j] == proc) ++count;
  return count;
}

VgbDistribution variable_group_block(const core::SpeedList& models,
                                     std::int64_t n, const VgbOptions& opts) {
  if (models.empty())
    throw std::invalid_argument("variable_group_block: no models");
  if (n < 1 || opts.block < 1)
    throw std::invalid_argument("variable_group_block: need n >= 1, b >= 1");
  const std::size_t p = models.size();
  const std::int64_t b = opts.block;

  VgbDistribution dist;
  dist.n = n;
  dist.block = b;

  // Under the functional model every group partitions the same models:
  // compile them once and run each group's solve on that compilation (the
  // bounded algorithm's residual rounds compile their own sub-lists). The
  // distributions are bit-identical to compiling per solve. The
  // single-number model solves nothing and compiles nothing.
  std::optional<core::CompiledSpeedList> compiled;
  if (opts.model == VgbModel::Functional)
    compiled.emplace(core::CompiledSpeedList::compile(models));
  // Successive groups solve the same models at a shrinking n, so each
  // group's solve warm-starts from the previous group's slope (a hint
  // changes only the search cost, never the distribution). A caller's own
  // hint is left in charge, and an observer sees plain cold searches.
  const bool chain_hints = !opts.policy.hint && !opts.policy.observer;
  core::PartitionPolicy policy = opts.policy;

  std::int64_t remaining_cols = n;
  while (remaining_cols > 0) {
    const std::int64_t blocks_remaining = (remaining_cols + b - 1) / b;
    const double m = static_cast<double>(remaining_cols);
    const std::int64_t elements = static_cast<std::int64_t>(m * m);

    // Step 1: optimal shares (x_i) for the remaining sub-matrix.
    std::vector<double> shares(p);
    if (opts.model == VgbModel::Functional) {
      core::PartitionResult r = core::partition(*compiled, elements, policy);
      for (std::size_t i = 0; i < p; ++i)
        shares[i] = static_cast<double>(r.distribution.counts[i]);
      if (chain_hints)
        policy.hint = core::next_hint(r, elements,
                                      policy.hint ? &*policy.hint : nullptr,
                                      compiled->fingerprint());
    } else {
      const double ref = static_cast<double>(opts.reference_n) *
                         static_cast<double>(opts.reference_n);
      double total = 0.0;
      for (std::size_t i = 0; i < p; ++i) total += models[i]->speed(ref);
      for (std::size_t i = 0; i < p; ++i)
        shares[i] =
            static_cast<double>(elements) * models[i]->speed(ref) / total;
    }

    // Step 2: group size — the slowest contributing processor gets about
    // one block; double if that leaves fewer than two blocks per processor.
    double sum_shares = 0.0;
    double min_share = std::numeric_limits<double>::infinity();
    for (const double x : shares) {
      sum_shares += x;
      if (x >= 1.0) min_share = std::min(min_share, x);
    }
    if (!std::isfinite(min_share)) min_share = std::max(sum_shares, 1.0);
    std::int64_t g =
        std::max<std::int64_t>(1, std::llround(sum_shares / min_share));
    if (g < 2 * static_cast<std::int64_t>(p)) g *= 2;
    g = std::min(g, blocks_remaining);

    // Step 3: distribute the g blocks in proportion to the shares. A share
    // of zero (a processor too slow to earn a single element) is clamped to
    // a sliver so the proportional rounding simply awards it no blocks.
    std::vector<double> weights(shares);
    for (double& w : weights) w = std::max(w, 1e-6);
    core::Distribution blocks_of = core::partition_single_number(g, weights);

    // Emit the group, fastest processors first. The final group instead
    // starts with the slowest processors, keeping the fastest last.
    const bool is_last = g == blocks_remaining;
    std::vector<std::size_t> order(p);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t c) {
                       return shares[a] > shares[c];
                     });
    if (is_last) std::reverse(order.begin(), order.end());
    for (const std::size_t i : order)
      for (std::int64_t k = 0; k < blocks_of.counts[i]; ++k)
        dist.block_owner.push_back(static_cast<int>(i));

    dist.group_sizes.push_back(g);
    remaining_cols -= std::min(remaining_cols, g * b);
  }
  assert(dist.total_blocks() == (n + b - 1) / b);
  return dist;
}

}  // namespace fpm::apps
