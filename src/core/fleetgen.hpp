// Synthetic heterogeneous fleet generator: builds a p-machine SpeedList
// from a seed and a family mix, with no hand-written spec files. This is
// how the thousand-rank scaling studies (bench/gates, bench/perf, the
// p=4096 tests, `fpmtool gen-fleet`) get realistic-shaped model
// populations: every machine draws a family, a baseline speed, and a
// capacity from a deterministic SplitMix64 stream, so (p, seed, mix) fully
// reproduces the fleet on any platform — results can be compared across
// runs and CI legs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/speed_function.hpp"

namespace fpm::core {

/// Relative draw weights for each model family (normalized internally; an
/// all-zero mix degrades to constant-only). The default is closed-form
/// heavy — 90% of entries land in the four batched SoA lanes — matching
/// the fleets the SIMD bench gate measures.
struct FleetMix {
  double constant = 0.10;
  double linear_decay = 0.25;
  double power_decay = 0.30;
  double exp_decay = 0.25;
  double piecewise = 0.07;
  double stepped = 0.03;
};

/// An owning generated fleet. `owned` keeps the models alive; list() is the
/// non-owning view every partitioning API consumes.
struct SyntheticFleet {
  std::vector<std::shared_ptr<const SpeedFunction>> owned;
  SpeedList list() const {
    SpeedList l;
    l.reserve(owned.size());
    for (const auto& f : owned) l.push_back(f.get());
    return l;
  }
};

/// Generates p heterogeneous models. Baseline speeds are log-uniform over
/// [50, 5000] (two decades of heterogeneity), capacities log-uniform over
/// [1e6, 1e9], per-family shape parameters drawn to keep every model valid
/// (strictly decreasing speed(x)/x). Deterministic in (p, seed, mix).
SyntheticFleet make_synthetic_fleet(std::size_t p, std::uint64_t seed,
                                    const FleetMix& mix = {});

}  // namespace fpm::core
