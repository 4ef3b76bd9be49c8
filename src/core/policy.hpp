// The unified partitioner engine: every member of the partitioning family
// (basic, modified, combined, interpolation, bounded) is registered under a
// string id in a constant registry table, and consumers select one at
// runtime through a PartitionPolicy value instead of hard-coding a call.
// The policy is the family's only options type: the algorithm id, the
// tuning knobs (each algorithm reads the ones it uses), an optional
// step-trace observer, an optional warm-start hint, and (for the bounded
// algorithm) per-processor capacity bounds — everything a layer needs to
// delegate the "which partitioner, tuned how" decision to its caller, a
// spec file, or a CLI flag.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/observer.hpp"
#include "core/partition.hpp"

namespace fpm::core {

class CompiledSpeedList;

/// Default iteration caps used when PartitionPolicy::max_iterations is
/// unset: the open-ended searches (basic, interpolation) stop at 2^20 steps;
/// the searches with the modified algorithm's guaranteed bound (modified,
/// combined, and bounded's inner combined solves) at 2^22.
inline constexpr int kSearchIterationCap = 1 << 20;
inline constexpr int kGuaranteedIterationCap = 1 << 22;

/// How a cold search (no hint, or a stale one) opens its slope bracket.
/// Fixed per algorithm by its registry row (PartitionerInfo::start).
enum class Bracket : std::uint8_t {
  /// The paper's Figure-18 lines; the algorithm's own steps run from there.
  Figure18,
  /// The Figure-18 lines narrowed by log-log secant probes and a tight
  /// straddle of n, the routine a warm hint runs (see PartitionHint). The
  /// probes stay inside Figure 18, count in speed_evals/intersect_solves
  /// but not in iterations, and never change the distribution.
  Secant,
};

/// A value describing which partitioner to run and how. The default policy
/// (combined algorithm, default knobs, no observer) reproduces
/// partition_combined(speeds, n) bit for bit. Every entry point of the
/// family takes it and reads only the fields it uses; `algorithm` matters
/// only to partition().
struct PartitionPolicy {
  /// Registry id (see partitioner_registry().ids()).
  std::string algorithm = kAlgorithmCombined;
  /// basic, combined, bounded: bisect true angles (atan of the slopes) as
  /// in the paper's description, or the tangents directly (the paper's
  /// suggested practical shortcut).
  bool bisect_angles = true;
  /// combined, bounded: number of consecutive basic steps over which the
  /// candidate count must at least halve; otherwise the search switches to
  /// the modified steps.
  int stall_window = 8;
  /// interpolation: the secant step is clamped this fraction of the
  /// log-slope bracket away from either end (0.5: pure log bisection).
  double safeguard_margin = 0.01;
  /// Hard iteration cap; on hitting it the current bracket is fine-tuned
  /// as-is (still a valid distribution, possibly sub-optimal). Unset: the
  /// algorithm's default (kSearchIterationCap or kGuaranteedIterationCap).
  /// Modified and combined also apply the p·log₂(p·n) guaranteed bound.
  std::optional<int> max_iterations{};
  /// When non-empty, every bracket/slope decision of the search is
  /// reported (core/observer.hpp).
  SearchObserver observer{};
  /// Per-processor capacity bounds, used by the "bounded" algorithm only.
  /// Empty: derived from each curve's max_size() (the paper's point b, the
  /// size at which the processor is effectively paging to a halt).
  std::vector<std::int64_t> bounds{};
  /// Warm-start hint from a previous solve of a nearby problem. The result
  /// stays bit-identical with or without it (a hint only narrows the
  /// search bracket), which is why format_policy() deliberately ignores it
  /// — two policies differing only in the hint are the same cache key.
  std::optional<PartitionHint> hint{};
};

namespace detail {
/// A family member's search over an already-compiled model, opened from
/// the given cold start.
using SearchFn = PartitionResult(Bracket start, const CompiledSpeedList&,
                                 std::int64_t, const PartitionPolicy&);
/// partition() opened from `start` instead of the algorithm's registry
/// start (bounded's inner solves included): the seam tests and the
/// algorithm ablation compare starts through. Only the search's cost
/// differs; the distribution is the same from either start. Compiles
/// `speeds` once and runs the search on it.
PartitionResult partition_from(Bracket start, const SpeedList& speeds,
                               std::int64_t n, const PartitionPolicy& policy);
}  // namespace detail

/// Static description of a registered algorithm.
struct PartitionerInfo {
  std::string id;          ///< registry key, also PartitionStats::algorithm
  std::string summary;     ///< one-line description for CLIs
  std::string complexity;  ///< asymptotic cost in intersection solves
  bool needs_bounds = false;  ///< consumes PartitionPolicy::bounds
  int max_iterations = 0;     ///< cap applied when the policy sets none
  /// The cold start: Figure18 for basic and modified, so they stay the
  /// paper's published algorithms; Secant for the others.
  Bracket start = Bracket::Figure18;
  detail::SearchFn* search = nullptr;  ///< the search, given the start
};

/// String-keyed dispatch over the constant table of the partitioner family.
class PartitionerRegistry {
 public:
  explicit PartitionerRegistry(std::vector<PartitionerInfo> infos)
      : infos_(std::move(infos)) {}

  /// All registered algorithms, in table order.
  const std::vector<PartitionerInfo>& entries() const noexcept {
    return infos_;
  }
  /// The registered ids, in table order.
  std::vector<std::string> ids() const;
  /// Comma-separated id list, for error messages and usage text.
  std::string joined_ids() const;
  /// Lookup; nullptr when the id is unknown.
  const PartitionerInfo* find(std::string_view id) const;
  /// Lookup; throws std::invalid_argument naming the valid ids when the id
  /// is unknown.
  const PartitionerInfo& at(std::string_view id) const;
  bool contains(std::string_view id) const { return find(id) != nullptr; }

  /// Compiles `speeds` once and runs the algorithm `id` on it from its
  /// registry start. Throws std::invalid_argument naming the valid ids
  /// when the id is unknown.
  PartitionResult run(std::string_view id, const SpeedList& speeds,
                      std::int64_t n, const PartitionPolicy& policy) const;

 private:
  std::vector<PartitionerInfo> infos_;
};

/// The process-wide registry holding the five family members:
/// basic, modified, combined, interpolation, bounded.
const PartitionerRegistry& partitioner_registry();

/// The engine: partitions n elements over an already-compiled model with
/// the algorithm selected by `policy`, and rolls the result's counters into
/// the obs registry. The search reads `speeds` and keeps nothing of it, so
/// a caller that solves one model set many times (the server, VGB's group
/// solves, an adaptation loop) compiles once and passes the same list to
/// every call, from any number of threads.
PartitionResult partition(const CompiledSpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy = {});

/// The entry point for a SpeedList: compiles it once and runs the engine
/// above. The default policy is exactly partition_combined(speeds, n).
PartitionResult partition(const SpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy = {});

/// Parses a policy from an id plus "key value" token pairs — the grammar
/// shared by spec files (`policy combined stall_window 4`) and CLI flags.
/// Accepted keys per algorithm:
///   basic          bisect_angles, max_iterations
///   modified       max_iterations
///   combined       stall_window, bisect_angles, max_iterations
///   interpolation  safeguard_margin, max_iterations
///   bounded        stall_window, bisect_angles, max_iterations (inner solve)
/// Value ranges: safeguard_margin finite in [0, 0.5], stall_window >= 1,
/// max_iterations >= 0. Throws std::invalid_argument on an unknown id
/// (naming the valid ids), unknown key, dangling key, malformed value, or
/// a value out of range (naming the key).
PartitionPolicy parse_policy(std::string_view algorithm,
                             std::span<const std::string> tokens = {});

/// Inverse of parse_policy: the id followed by the keys it accepts whose
/// values differ from the defaults (for max_iterations, the algorithm's own
/// default). Doubles print in the shortest %g form
/// (at least 6 significant digits) that parses back to the same value, so
/// the text round-trips exactly through parse_policy.
std::string format_policy(const PartitionPolicy& policy);

}  // namespace fpm::core
