#include "balance/rebalancer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/policy.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"

namespace fpm::balance {

Rebalancer::Rebalancer(std::size_t processors, std::int64_t n,
                       const OnlineModelOptions& model_opts,
                       const RebalancerOptions& opts)
    : Rebalancer(core::partition_even(n, processors), model_opts, opts) {}

Rebalancer::Rebalancer(core::Distribution initial,
                       const OnlineModelOptions& model_opts,
                       const RebalancerOptions& opts)
    : dist_(std::move(initial)), n_(dist_.total()), opts_(opts) {
  if (dist_.counts.empty())
    throw std::invalid_argument("Rebalancer: no processors");
  models_.reserve(dist_.counts.size());
  for (std::size_t i = 0; i < dist_.counts.size(); ++i)
    models_.emplace_back(model_opts);
  active_.assign(dist_.counts.size(), 1);
  slow_streak_.assign(dist_.counts.size(), 0);
  missing_streak_.assign(dist_.counts.size(), 0);
}

core::Distribution Rebalancer::partition_active() {
  std::vector<std::size_t> alive;
  for (std::size_t i = 0; i < active_.size(); ++i)
    if (active_[i]) alive.push_back(i);
  if (alive.empty())
    throw std::runtime_error("Rebalancer: every processor collapsed");

  core::Distribution out;
  out.counts.assign(dist_.counts.size(), 0);
  bool all_ready = true;
  for (const std::size_t i : alive)
    if (!models_[i].ready()) all_ready = false;
  if (all_ready) {
    std::vector<core::PiecewiseLinearSpeed> curves;
    curves.reserve(alive.size());
    for (const std::size_t i : alive) curves.push_back(models_[i].curve());
    core::SpeedList speeds;
    speeds.reserve(curves.size());
    for (const auto& c : curves) speeds.push_back(&c);
    core::PartitionPolicy policy = opts_.policy;
    if (!policy.hint) policy.hint = hint_;
    const core::PartitionResult res =
        opts_.server ? opts_.server->serve(speeds, n_, policy)
                     : core::partition(speeds, n_, policy);
    // Carry the accepted slope across rounds. The curves are re-learned
    // every round, so the hint skips the fingerprint check.
    if (auto next = core::next_hint(res, n_, hint_ ? &*hint_ : nullptr, 0))
      hint_ = next;
    for (std::size_t j = 0; j < alive.size(); ++j)
      out.counts[alive[j]] = res.distribution.counts[j];
  } else {
    const core::Distribution sub = core::partition_even(n_, alive.size());
    for (std::size_t j = 0; j < alive.size(); ++j)
      out.counts[alive[j]] = sub.counts[j];
  }
  return out;
}

bool Rebalancer::step(std::span<const double> seconds) {
  if (seconds.size() != dist_.counts.size())
    throw std::invalid_argument("Rebalancer::step: size mismatch");
  ++iterations_seen_;
  last_migration_s_ = 0.0;
  obs::metrics().counter(obs::names::kRebalanceRounds).add(1);

  // Ingest observations, compute the iteration's imbalance, and track the
  // two collapse signals: speed far below the model's own estimate
  // (estimated *before* the observation updates the model) and repeated
  // missing measurements on a non-empty share.
  double t_max = 0.0;
  double t_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    const auto share = static_cast<double>(dist_.counts[i]);
    if (share <= 0.0) continue;
    if (!(seconds[i] > 0.0)) {  // missing, zero, or NaN time
      if (active_[i]) ++missing_streak_[i];
      continue;
    }
    missing_streak_[i] = 0;
    const double observed = share / seconds[i];
    if (active_[i] && opts_.evacuation_speed_fraction > 0.0) {
      const std::optional<double> expected = models_[i].estimate(share);
      if (expected && observed < opts_.evacuation_speed_fraction * *expected)
        ++slow_streak_[i];
      else
        slow_streak_[i] = 0;
    }
    models_[i].observe(share, observed);
    t_max = std::max(t_max, seconds[i]);
    t_min = std::min(t_min, seconds[i]);
  }
  last_imbalance_ = t_max > 0.0 ? (t_max - t_min) / t_max : 0.0;

  // Emergency drain of collapsed processors: immediate, no cooldown, no
  // gain margin — holding a share on a dead or 10x-degraded machine costs
  // more per iteration than any migration.
  bool drained = false;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (!active_[i] || dist_.counts[i] <= 0) continue;
    const bool missing_collapse =
        opts_.max_missing_measurements > 0 &&
        missing_streak_[i] >= opts_.max_missing_measurements;
    const bool speed_collapse = opts_.evacuation_speed_fraction > 0.0 &&
                                slow_streak_[i] >= opts_.collapse_strikes;
    if (missing_collapse || speed_collapse) {
      active_[i] = 0;
      ++evacuations_;
      obs::metrics().counter(obs::names::kRebalanceEvacuations).add(1);
      drained = true;
    }
  }
  if (drained) {
    core::Distribution candidate = partition_active();
    std::int64_t moved = 0;
    for (std::size_t i = 0; i < candidate.counts.size(); ++i)
      moved += std::abs(candidate.counts[i] - dist_.counts[i]);
    moved /= 2;
    last_migration_s_ =
        static_cast<double>(moved) * opts_.migration_cost_per_element_s;
    dist_ = std::move(candidate);
    ++repartitions_;
    obs::metrics().counter(obs::names::kRebalanceRepartitions).add(1);
    last_repartition_iteration_ = iterations_seen_;
    return true;
  }

  if (iterations_seen_ <= opts_.warmup_iterations) return false;
  if (iterations_seen_ - last_repartition_iteration_ <=
      opts_.cooldown_iterations)
    return false;
  if (last_imbalance_ <= opts_.imbalance_threshold) return false;
  for (std::size_t i = 0; i < models_.size(); ++i)
    if (active_[i] && !models_[i].ready())
      return false;  // someone has no data yet (empty share)

  // Candidate repartition from the learned curves of the active
  // processors. Accept only if the *predicted* makespan (both sides
  // evaluated on the learned curves, cancelling measurement noise)
  // improves by the margin plus the one-off migration cost amortized over
  // a single iteration.
  core::Distribution candidate = partition_active();
  std::vector<core::PiecewiseLinearSpeed> curves;
  core::SpeedList speeds;
  core::Distribution sub_candidate, sub_current;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    if (!active_[i]) continue;
    curves.push_back(models_[i].curve());
    sub_candidate.counts.push_back(candidate.counts[i]);
    sub_current.counts.push_back(dist_.counts[i]);
  }
  speeds.reserve(curves.size());
  for (const auto& c : curves) speeds.push_back(&c);
  const double predicted_new = core::makespan(speeds, sub_candidate);
  const double predicted_current = core::makespan(speeds, sub_current);
  std::int64_t moved = 0;
  for (std::size_t i = 0; i < candidate.counts.size(); ++i)
    moved += std::abs(candidate.counts[i] - dist_.counts[i]);
  moved /= 2;  // every element moved leaves one share and enters another
  const double migration =
      static_cast<double>(moved) * opts_.migration_cost_per_element_s;
  if (predicted_new + migration >=
      predicted_current * (1.0 - opts_.gain_margin))
    return false;

  dist_ = std::move(candidate);
  ++repartitions_;
  obs::metrics().counter(obs::names::kRebalanceRepartitions).add(1);
  last_repartition_iteration_ = iterations_seen_;
  last_migration_s_ = migration;
  return true;
}

}  // namespace fpm::balance
