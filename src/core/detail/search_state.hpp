// Internal shared state for the bracketing line search used by the basic,
// modified, combined and interpolation partitioning algorithms. Not part of
// the public API; include only from core/*.cpp.
#pragma once

#include <cmath>
#include <cstdint>
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
/// The state reads the caller's compiled model, which must outlive it, and
/// every solve — bracket detection, secant probes, line splits and the
/// fine-tune epilogue — runs on its sweeps. Each speed evaluation and each
/// per-processor intersect solve is counted once, at the boundary the
/// SpeedFunction interface would see it.
class SearchState {
 public:
  /// Initializes from the cold `start` (see open_cold) unless a usable
  /// `hint` is adopted. The observer pointer, when non-null and pointing at
  /// a non-empty function, receives one SearchStep per bracket/slope
  /// decision; it must outlive this object. A usable `hint` replaces the cold bracket with a
  /// tight verified one around the hinted slope (see PartitionHint);
  /// verification failure falls back to the cold bracket, so the search
  /// result is bit-identical with or without the hint.
  SearchState(const CompiledSpeedList& speeds, std::int64_t n,
              const SearchObserver* observer = nullptr,
              const PartitionHint* hint = nullptr,
              Bracket start = Bracket::Figure18);
  // The state keeps a reference, which a temporary model would leave
  // dangling.
  SearchState(CompiledSpeedList&&, std::int64_t,
              const SearchObserver* = nullptr, const PartitionHint* = nullptr,
              Bracket = Bracket::Figure18) = delete;

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
  /// Line solves the constructor spent on Figure 18's two lines, their
  /// expansions included (0 when the secant opened without them).
  int figure18_lines() const noexcept { return figure18_lines_; }

  /// The shared search epilogue: records the search-phase stats into
  /// `result`, runs the Figure-9 fine-tune over the steep line (one
  /// speed_all sweep seeds its awards), then records the totals and
  /// the warm-start outcome. The search counters are read before the
  /// fine-tune, so search_speed_evals/search_intersect_solves exclude it.
  /// The state is spent afterwards: only the steep line is kept.
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

  /// The log-log secant step: the slope where the secant through the last
  /// two solved lines predicts a total size of n. The secant runs on
  /// g(c) = ln N(c) - ln n over ln c, N(c) being the total size on the line
  /// of slope c; its elasticity E = d ln N / d ln c is the last finite
  /// negative one measured, -1 (constant speeds) until then. Not confined
  /// to the bracket.
  double secant_slope() const noexcept { return secant_step(elasticity_); }

 private:
  /// A line the secant has seen: its slope and g = ln N - ln n.
  struct SecantPoint {
    double slope = 0.0;
    double g = 0.0;
  };
  /// A solved line on one side of n.
  struct Side {
    double slope = 0.0;  ///< 0 = none yet
    double total = 0.0;
    std::vector<double> sizes;
  };

  /// What secant_bracket spent and whether it straddled n.
  struct SecantOutcome {
    int probes = 0;  ///< line solves
    bool straddled = false;
  };

  /// Restarts the secant from the pair (older, newer); a pair of one
  /// slope is a single line.
  void restart_secant(SecantPoint older, SecantPoint newer);
  /// Appends a solved line to the secant.
  void remember(SecantPoint line);
  /// The secant step from the last line at the given elasticity.
  double secant_step(double elasticity) const noexcept {
    return last_.slope * std::exp(-last_.g / elasticity);
  }
  /// Evaluates the line of slope `c`, then assigns it to the steep or
  /// shallow side depending on whether its total size is below n.
  void split_at(double slope, SearchStepKind kind,
                std::size_t processor = kNoProcessor);

  /// Records an interval at round-off width where no usable split existed
  /// (the attempted slope is logged; the bracket is unchanged).
  void degenerate_step(double slope);

  /// The secant bracket both starts share. From the secant's current
  /// pair of lines, takes a few secant steps on the total size, then
  /// straddles n tightly around the last one, keeping the tightest solved
  /// line on each side in `steep` (total <= n) and `shallow` (total > n).
  /// Every probe stays inside [window_lo, window_hi], inside the lines
  /// already known to straddle n, and within one shared probe budget. The
  /// attempt ends without a straddle when a probe would leave the window
  /// or the budget, or solves to a degenerate total, and, with
  /// `stop_when_flat`, when two or more probes land on one side with an
  /// elasticity below the clamp in magnitude.
  SecantOutcome secant_bracket(double window_lo, double window_hi,
                               Side& steep, Side& shallow,
                               bool stop_when_flat);

  /// Warm start: the secant from the hint's line, in a window 16x around
  /// the hinted slope rescaled to n. On success fills
  /// bracket_/small_/large_ and returns true. On failure the members are
  /// untouched (bar warm_probes_ and the secant) and the caller runs the
  /// cold start.
  bool try_warm_bracket(const PartitionHint& hint);

  /// Cold start. Takes the Figure-18 probe in one batched speed sweep.
  /// Bracket::Figure18 adopts Figure 18's two lines. Bracket::Secant on a
  /// window s_max/s_min wider than the warm start's opens the secant at
  /// the mean-speed line, inside the Figure-18 window, and adopts its
  /// straddle. Otherwise (a narrow window, a flat curve, or no straddle)
  /// it solves the Figure-18 line of each side no probe found and narrows
  /// that pair with the secant, keeping the narrowed bracket when the
  /// budget runs out.
  void open_cold(Bracket start);
  /// Solves a Figure-18 line with its expansion into `side`.
  void solve_figure18_line(double slope, bool is_steep, Side& side);

  /// Adopts the sides as the bracket.
  void adopt(Side& steep, Side& shallow);

  bool observing() const { return observer_ && *observer_; }
  void emit(SearchStepKind kind, double slope, bool kept_low,
            std::size_t processor) const;

  const CompiledSpeedList& compiled_;
  std::int64_t n_;
  double log_n_;
  SlopeBracket bracket_;
  std::vector<double> small_;
  std::vector<double> large_;
  /// The line being solved: every secant probe and split solves into it,
  /// and a kept line trades buffers with the side it replaces, so a search
  /// allocates no line buffer after its first probe.
  std::vector<double> scratch_;
  int iterations_ = 0;
  int intersections_ = 0;
  EvalCounters counters_;
  std::int64_t saturation_base_ = 0;  ///< tally snapshot at construction
  const SearchObserver* observer_ = nullptr;
  const PartitionHint* hint_ = nullptr;
  WarmStart warmstart_ = WarmStart::None;
  int warm_probes_ = 0;
  int figure18_lines_ = 0;
  // The secant's last line and its current elasticity.
  SecantPoint last_;
  double elasticity_ = -1.0;
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
/// model list, answers n <= 0 with all-zero counts, otherwise builds the
/// SearchState from the policy's observer and hint and the cold `start`,
/// lets `search` step it, and runs the shared epilogue. `algorithm` is the
/// reported registry id.
template <typename Search>
PartitionResult run_search(const char* algorithm, Bracket start,
                           const CompiledSpeedList& speeds, std::int64_t n,
                           const PartitionPolicy& policy, Search&& search) {
  if (speeds.size() == 0)
    throw std::invalid_argument(std::string("partition_") + algorithm +
                                ": no speeds");
  PartitionResult result;
  result.stats.algorithm = algorithm;
  if (n <= 0) {
    result.distribution.counts.assign(speeds.size(), 0);
    return result;
  }
  SearchState state(speeds, n, &policy.observer,
                    policy.hint ? &*policy.hint : nullptr, start);
  search(state);
  state.finish(result);
  return result;
}

/// Adds every work counter of `part`, one inner solve of a composite
/// partitioner (bounded's rounds, hierarchical's groups), to `total`.
inline void add_counters(PartitionStats& total, const PartitionStats& part) {
  total.iterations += part.iterations;
  total.intersections += part.intersections;
  total.speed_evals += part.speed_evals;
  total.intersect_solves += part.intersect_solves;
  total.search_speed_evals += part.search_speed_evals;
  total.search_intersect_solves += part.search_intersect_solves;
  total.bracket_saturations += part.bracket_saturations;
  total.warm_probes += part.warm_probes;
  total.figure18_lines += part.figure18_lines;
}

// The family's searches, held by the registry rows; the public partition_*
// entry points run them from the row's start.
SearchFn basic_from, modified_from, combined_from, interpolation_from,
    bounded_from;

}  // namespace fpm::core::detail
