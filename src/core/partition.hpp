// Common types and helpers for the set-partitioning problem (paper §2):
// partition an n-element set over p heterogeneous processors so that the
// number of elements per processor is proportional to its speed at the size
// it receives.
//
// The geometric formulation: an allocation (x_1..x_p) with x_i proportional
// to s_i(x_i) corresponds to a straight line of some slope c through the
// origin, with x_i the intersection of that line with the i-th speed graph
// and sum(x_i) = n. All algorithms search for that slope.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/speed_function.hpp"

namespace fpm::core {

/// Canonical algorithm ids reported in PartitionStats::algorithm. The first
/// five name the registered members of the partitioner family (see
/// core/policy.hpp); the rest name special-purpose partitioners that report
/// through the same field.
inline constexpr const char* kAlgorithmBasic = "basic";
inline constexpr const char* kAlgorithmModified = "modified";
inline constexpr const char* kAlgorithmCombined = "combined";
inline constexpr const char* kAlgorithmInterpolation = "interpolation";
inline constexpr const char* kAlgorithmBounded = "bounded";
inline constexpr const char* kAlgorithmEven = "even";
inline constexpr const char* kAlgorithmSingleNumber = "single-number";
inline constexpr const char* kAlgorithmHierarchical = "hierarchical";
inline constexpr const char* kAlgorithmCommAware = "comm-aware";
inline constexpr const char* kAlgorithmWeightedContiguous =
    "weighted-contiguous";
/// PartitionServer degraded answers (core/slo.hpp): a previous solution
/// rescaled to the requested n, not an engine search.
inline constexpr const char* kAlgorithmDegraded = "degraded";

/// Integer allocation of the n elements: counts[i] elements to processor i.
struct Distribution {
  std::vector<std::int64_t> counts;

  std::int64_t total() const noexcept;
  std::size_t processors() const noexcept { return counts.size(); }
};

/// A warm-start hint carried between successive solves of nearly identical
/// problems (Rebalancer rounds, server near-miss traffic, mpp recovery, the
/// group solves of one VGB distribution): the previous solution's slope,
/// the n it solved, and the models it was computed against. The search
/// rescales the hinted slope to the new n, refines it with a few secant
/// steps on the total size, and opens a tight verified bracket around it
/// instead of the Figure-18 cold bracket; a near-miss typically costs about
/// four line solves. A stale hint (wrong models, garbage slope, optimum
/// more than 16x from the rescaled slope, or a 12-solve budget spent)
/// falls back to the cold bracket. Either way the returned distribution is
/// bit-identical to a cold run — the hint can only change how many solves
/// the search spends.
struct PartitionHint {
  /// PartitionStats::final_slope of the previous solve; must be a positive
  /// finite number to be usable.
  double slope = 0.0;
  /// The element count the hint solved. When it differs from the current n
  /// the hinted slope is rescaled by old-n/new-n before bracketing; 0 means
  /// "same n" (no rescale).
  std::int64_t n = 0;
  /// CompiledSpeedList fingerprint of the models the hint was computed
  /// against. A mismatch marks the hint stale before any solve is spent.
  /// 0 skips the check — for callers whose models legitimately change every
  /// round (e.g. the Rebalancer re-learns its curves), who rely on the
  /// bracket verification alone.
  std::uint64_t fingerprint = 0;
  /// Iteration count of the solve that produced the hint (or of the last
  /// cold solve), used to report PartitionStats::iterations_saved.
  int baseline_iterations = 0;

  /// True when the slope can seed a bracket at all.
  bool usable() const noexcept { return std::isfinite(slope) && slope > 0.0; }
};

/// Outcome of the warm-start attempt for one search.
enum class WarmStart : std::uint8_t {
  None,   ///< no usable hint supplied
  Hit,    ///< hinted bracket verified and adopted
  Stale,  ///< hint rejected: fingerprint mismatch or verification failed
};

/// Diagnostics reported by the iterative partitioners.
///
/// Two counter families coexist: `iterations`/`intersections` are the
/// paper-facing accounting (bisection steps and the p solves each one
/// charges, plus 2p for the initial bracket) and are left untouched for
/// backward compatibility; `speed_evals`/`intersect_solves` are measured at
/// the SpeedFunction boundary and therefore also see bracket-expansion
/// probes, fallback re-bisections, and fine-tuning — they are the honest
/// totals the complexity guards assert on.
struct PartitionStats {
  int iterations = 0;              ///< bisection steps performed
  int intersections = 0;           ///< c·x = s(x) solves performed
  double final_slope = 0.0;        ///< slope of the line used for fine-tuning
  std::string algorithm;           ///< registry id of the producing algorithm
  bool switched_to_modified = false;  ///< combined algorithm fell back
  std::int64_t speed_evals = 0;       ///< s(x) evaluations observed
  std::int64_t intersect_solves = 0;  ///< c·x = s(x) solves observed
  WarmStart warmstart = WarmStart::None;  ///< what became of the hint
  /// Iterations below the hint's baseline_iterations (>= 0; only meaningful
  /// on a WarmStart::Hit with a caller-supplied baseline).
  int iterations_saved = 0;
  /// Line solves (sweeps over all p processors) spent opening the warm
  /// bracket — the secant refinement and the straddle probes — whether the
  /// hint was adopted or went stale. With a good hint nearly all of a warm
  /// search's cost is here rather than in `iterations`, which is why
  /// iterations_saved alone cannot show it.
  int warm_probes = 0;
  /// Line solves spent on Figure 18's two lines, their expansions
  /// included. A cold secant start on a wide Figure-18 window opens at the
  /// mean-speed line and solves none; narrow windows and flat curves fall
  /// back to the pair. Rolled into the partition.bracket.figure18_lines
  /// obs counter.
  int figure18_lines = 0;
  /// The search-phase portion of speed_evals/intersect_solves: everything
  /// up to (excluding) the fine-tuning epilogue. Fine-tuning costs the same
  /// ~1.5p evaluations whether the search started cold or warm, so these
  /// are the counters a warm-start actually shrinks — the drift ablation
  /// gates on them.
  std::int64_t search_speed_evals = 0;
  std::int64_t search_intersect_solves = 0;
  /// Generic-bisection bracket expansions that hit the 256-doubling cap
  /// with the curve still above the line: those solves returned the
  /// saturated bracket's midpoint (~max_size·2^256), a stand-in for a
  /// crossing too distant to represent, not a true intersection. Nonzero
  /// means some candidate line was astronomically shallower than every
  /// model — usually a modelling problem worth surfacing, hence the
  /// partition.intersect.bracket_saturations obs counter.
  std::int64_t bracket_saturations = 0;
};

/// A partitioner's output: the integer allocation plus diagnostics.
struct PartitionResult {
  Distribution distribution;
  PartitionStats stats;
};

/// The hint for the next solve of a chain: the result's final_slope, its n
/// and the models' `fingerprint` (0 skips the check). A WarmStart::Hit on
/// `previous` (the chain's last hint, if any) keeps its
/// baseline_iterations, so iterations_saved measures warm solves against
/// the last cold one; otherwise the result's iterations are the baseline.
/// nullopt when final_slope is not a positive finite number.
std::optional<PartitionHint> next_hint(const PartitionResult& result,
                                       std::int64_t n,
                                       const PartitionHint* previous,
                                       std::uint64_t fingerprint);

/// Intersections of a slope-c line with every graph: x_i = s_i^{-1}-style
/// solve of c·x = s_i(x). Sizes are real-valued (the integer allocation is
/// produced later by fine-tuning).
std::vector<double> sizes_at(const SpeedList& speeds, double slope);

/// Sum of sizes_at(); strictly decreasing in the slope.
double total_size_at(const SpeedList& speeds, double slope);

/// A pair of slopes bracketing the optimal line: total size >= n at
/// `lo_slope` and <= n at `hi_slope` (hi_slope >= lo_slope).
struct SlopeBracket {
  double lo_slope = 0.0;  ///< shallow line, larger sizes (sum >= n)
  double hi_slope = 0.0;  ///< steep line, smaller sizes (sum <= n)
};

/// Initial bracket detection (paper Figure 18): evaluate every speed at
/// n/p; line 1 through (n/p, max speed) has sum <= n, line 2 through
/// (n/p, min speed) has sum >= n. A geometric expansion loop guards against
/// degenerate inputs (e.g. sizes beyond every curve's range).
/// Requires n >= 1 and a non-empty speed list. When given, `small` and
/// `large` receive the sizes on the returned hi and lo slopes — the last
/// lines the expansion loops solved, so no further solve is needed.
/// Compiles `speeds` and runs the CompiledSpeedList overload (compiled.hpp).
SlopeBracket detect_bracket(const SpeedList& speeds, std::int64_t n,
                            std::vector<double>* small = nullptr,
                            std::vector<double>* large = nullptr);

/// Even distribution: n/p elements each, remainders to the lowest ranks.
/// The paper's fallback when model information is unusable.
Distribution partition_even(std::int64_t n, std::size_t p);

/// The single-number model baseline: distributes n proportionally to the
/// constant speeds, then fixes rounding with a min-completion-time greedy so
/// the counts sum to exactly n. Complexity O(p·log p).
Distribution partition_single_number(std::int64_t n,
                                     std::span<const double> speeds);

/// Convenience: the single-number baseline where each constant speed is
/// read off the functional model at a reference size (the paper's
/// experiments measure all processors at one fixed size, e.g. a 500x500
/// matrix).
Distribution partition_single_number_at(const SpeedList& speeds,
                                        std::int64_t n, double reference_size);

/// Parallel execution time of a distribution under the functional model:
/// max_i counts[i] / s_i(counts[i]) in reciprocal speed units. This is the
/// objective the optimal line minimizes.
double makespan(const SpeedList& speeds, const Distribution& d);

/// Per-processor execution times counts[i] / s_i(counts[i]).
std::vector<double> execution_times(const SpeedList& speeds,
                                    const Distribution& d);

}  // namespace fpm::core
