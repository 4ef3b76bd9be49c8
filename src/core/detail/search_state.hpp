// Internal shared state for the bracketing line search used by the basic,
// modified, combined and interpolation partitioning algorithms. Not part of
// the public API; include only from core/*.cpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiled.hpp"
#include "core/finetune.hpp"
#include "core/observer.hpp"
#include "core/partition.hpp"
#include "core/policy.hpp"

namespace fpm::core::detail {

/// The region between two lines through the origin, tracked as the slope
/// interval together with the per-processor intersection coordinates.
///
/// The constructor flattens the input through CompiledSpeedList once (or
/// adopts the model a PrecompiledGuard installed for this list), and every
/// solve — bracket detection, warm probes, line splits and the fine-tune
/// epilogue — runs on the compiled sweeps. Each speed evaluation and each
/// per-processor intersect solve is counted once, at the boundary the
/// SpeedFunction interface would see it.
class SearchState {
 public:
  /// Initializes from the Figure-18 bracket and solves both lines. The
  /// observer pointer, when non-null and pointing at a non-empty function,
  /// receives one SearchStep per bracket/slope decision; it must outlive
  /// this object. A usable `hint` replaces the cold bracket with a tight
  /// verified one around the hinted slope (see PartitionHint); verification
  /// failure falls back to the cold bracket, so the search result is
  /// bit-identical with or without the hint.
  SearchState(const SpeedList& speeds, std::int64_t n,
              const SearchObserver* observer = nullptr,
              const PartitionHint* hint = nullptr);

  // compiled_ may point into compiled_storage_, so copies would dangle.
  SearchState(const SearchState&) = delete;
  SearchState& operator=(const SearchState&) = delete;

  /// Per-processor intersections with the steep line (sum <= n).
  const std::vector<double>& small() const noexcept { return small_; }
  /// Per-processor intersections with the shallow line (sum >= n).
  const std::vector<double>& large() const noexcept { return large_; }

  double hi_slope() const noexcept { return bracket_.hi_slope; }
  double lo_slope() const noexcept { return bracket_.lo_slope; }
  int iterations() const noexcept { return iterations_; }
  int intersections() const noexcept { return intersections_; }

  /// Speed-function evaluations observed at the SpeedFunction boundary
  /// (includes bracket-detection probes, unlike intersections()).
  std::int64_t speed_evals() const noexcept { return counters_.speed_evals; }
  /// c·x = s(x) solves observed at the SpeedFunction boundary.
  std::int64_t intersect_solves() const noexcept {
    return counters_.intersect_solves;
  }

  /// Generic-bisection bracket saturations observed since this state was
  /// constructed (the thread-local tally delta — intersect_all migrates
  /// pool-thread chunks back to the solving thread, so the delta is
  /// complete). Read from the constructing thread, like the counters.
  std::int64_t bracket_saturations() const noexcept;

  /// What the constructor did with the warm-start hint.
  WarmStart warmstart() const noexcept { return warmstart_; }
  /// Line solves (sweeps over all p processors) the constructor spent on
  /// the warm bracket, whether it was adopted or the hint went stale.
  int warm_probes() const noexcept { return warm_probes_; }

  /// The shared search epilogue: records the search-phase stats into
  /// `result`, runs the Figure-9 fine-tune over the steep line (one
  /// speeds_at sweep seeds the award heap), then records the totals and
  /// the warm-start outcome. The search counters are read before the
  /// fine-tune, so search_speed_evals/search_intersect_solves exclude it.
  void finish(PartitionResult& result);

  /// Count of integers k with small[i] < k <= large[i]: the candidate
  /// solutions the i-th graph still contributes to the solution space.
  std::int64_t interior_count(std::size_t i) const;

  /// Sum of interior_count over all processors.
  std::int64_t total_interior() const;

  /// The paper's stopping criterion: no processor bracket contains an
  /// integer strictly inside.
  bool converged() const;

  /// One basic-bisection step: split the slope interval at the (angle or
  /// tangent) midpoint and keep the half containing the optimum.
  void step_basic(bool bisect_angles);

  /// One modified-algorithm step: pick the processor with the most interior
  /// candidates, draw the line through the midpoint of its size bracket,
  /// and shrink the region with it. Falls back to a tangent bisection when
  /// the midpoint line degenerates numerically.
  void step_modified();

  /// One step with a caller-chosen slope (used by the interpolation
  /// search); slopes outside the open bracket are replaced by a tangent
  /// bisection.
  void step_custom(double slope);

 private:
  /// Evaluates the line of slope `c`, then assigns it to the steep or
  /// shallow side depending on whether its total size is below n.
  void split_at(double slope, SearchStepKind kind,
                std::size_t processor = kNoProcessor);

  /// Records an interval at round-off width where no usable split existed
  /// (the attempted slope is logged; the bracket is unchanged).
  void degenerate_step(double slope);

  /// Attempts to open a verified bracket around the hinted slope: refines
  /// the (rescaled) hinted slope with a few secant steps on the total size,
  /// then straddles n tightly around it. On success fills
  /// bracket_/small_/large_ and returns true. On failure the members are
  /// untouched (bar warm_probes_) and the caller runs the cold detection.
  bool try_warm_bracket(const PartitionHint& hint, std::int64_t n);

  bool observing() const { return observer_ && *observer_; }
  void emit(SearchStepKind kind, double slope, bool kept_low,
            std::size_t processor) const;

  // compiled_ points either at compiled_storage_ (we compiled here) or at
  // a caller-owned model installed via PrecompiledGuard (the batch server's
  // once-per-request compilation).
  std::optional<CompiledSpeedList> compiled_storage_;
  const CompiledSpeedList* compiled_ = nullptr;
  std::int64_t n_;
  SlopeBracket bracket_;
  std::vector<double> small_;
  std::vector<double> large_;
  int iterations_ = 0;
  int intersections_ = 0;
  EvalCounters counters_;
  std::int64_t saturation_base_ = 0;  ///< tally snapshot at construction
  const SearchObserver* observer_ = nullptr;
  const PartitionHint* hint_ = nullptr;
  WarmStart warmstart_ = WarmStart::None;
  int warm_probes_ = 0;
};

/// The modified algorithm's guaranteed step count: each p steps halve the
/// candidate count of at most p·n lines, so p·log2(p·n) steps suffice;
/// slack covers the bracket setup.
inline int guaranteed_steps(std::size_t p, std::int64_t n) {
  const double pd = static_cast<double>(p);
  return static_cast<int>(pd * (std::log2(static_cast<double>(n) * pd) + 4.0)) +
         64;
}

/// The shared frame of the line-search entry points: rejects an empty
/// speed list, answers n <= 0 with all-zero counts, otherwise builds the
/// SearchState from the policy's observer and hint, lets `search` step it,
/// and runs the shared epilogue. `algorithm` is the reported registry id.
template <typename Search>
PartitionResult run_search(const char* algorithm, const SpeedList& speeds,
                           std::int64_t n, const PartitionPolicy& policy,
                           Search&& search) {
  if (speeds.empty())
    throw std::invalid_argument(std::string("partition_") + algorithm +
                                ": no speeds");
  PartitionResult result;
  result.stats.algorithm = algorithm;
  if (n <= 0) {
    result.distribution.counts.assign(speeds.size(), 0);
    return result;
  }
  SearchState state(speeds, n, &policy.observer,
                    policy.hint ? &*policy.hint : nullptr);
  search(state);
  state.finish(result);
  return result;
}

}  // namespace fpm::core::detail
