// Shared search instrumentation for the partitioner family: an optional
// per-step callback (SearchObserver) invoked by the bracketing line search
// for every bracket/slope decision it takes, plus StepTrace, a bounded
// in-memory log built on the callback. All members of the family (basic,
// modified, combined, interpolation, and the residual solves of bounded)
// report through the same channel, so a trace reads identically whichever
// algorithm produced it.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace fpm::core {

/// Sentinel for SearchStep::processor when the step is not tied to one
/// specific speed graph.
inline constexpr std::size_t kNoProcessor =
    std::numeric_limits<std::size_t>::max();

/// What kind of decision a recorded search step was.
enum class SearchStepKind {
  Bracket,     ///< the initial Figure-18 bracket (iteration 0, no split)
  Basic,       ///< angle/tangent bisection of the slope interval
  Modified,    ///< space-of-solutions step through a graph's size midpoint
  Custom,      ///< caller-chosen slope (the interpolation search)
  Degenerate,  ///< interval at round-off width; no usable split existed
};

/// Short lower-case name of a step kind (stable, for traces and CLIs).
constexpr const char* to_string(SearchStepKind kind) {
  switch (kind) {
    case SearchStepKind::Bracket:
      return "bracket";
    case SearchStepKind::Basic:
      return "basic";
    case SearchStepKind::Modified:
      return "modified";
    case SearchStepKind::Custom:
      return "custom";
    case SearchStepKind::Degenerate:
      return "degenerate";
  }
  return "?";
}

/// One bracket/slope decision of the line search. The initial bracket is
/// reported once with kind Bracket and iteration 0; every subsequent record
/// carries the iteration count *after* the step, so the last record's
/// iteration equals PartitionStats::iterations for single-search
/// algorithms (bounded runs one search per residual round; the per-round
/// iterations then sum to the stats).
struct SearchStep {
  int iteration = 0;
  SearchStepKind kind = SearchStepKind::Bracket;
  double slope = 0.0;     ///< slope evaluated (Bracket: the steep endpoint)
  double lo_slope = 0.0;  ///< slope bracket after the step
  double hi_slope = 0.0;
  std::int64_t interior = 0;  ///< candidate solutions still in the region
  bool kept_low = false;      ///< optimum retained in the shallower half
  std::size_t processor = kNoProcessor;  ///< Modified: which graph was split
};

/// Optional per-step callback. An empty function disables instrumentation
/// (the search then skips the O(p) interior count a record would need).
using SearchObserver = std::function<void(const SearchStep&)>;

/// A bounded step log: records up to `max_steps` steps and keeps counting
/// past the cap, so the totals stay exact even when the log is truncated.
class StepTrace {
 public:
  explicit StepTrace(std::size_t max_steps = 4096) : max_steps_(max_steps) {}

  /// The callback to install in PartitionPolicy::observer. The trace must
  /// outlive the partitioning call.
  SearchObserver observer() {
    return [this](const SearchStep& step) { record(step); };
  }

  void record(const SearchStep& step) {
    if (step.kind == SearchStepKind::Bracket)
      ++brackets_;
    else
      ++search_steps_;
    if (steps_.size() < max_steps_)
      steps_.push_back(step);
    else
      truncated_ = true;
  }

  const std::vector<SearchStep>& steps() const noexcept { return steps_; }
  /// Non-bracket steps seen (monotone; equals PartitionStats::iterations).
  std::int64_t search_steps() const noexcept { return search_steps_; }
  /// Bracket records seen (one per line search started).
  std::int64_t brackets() const noexcept { return brackets_; }
  bool truncated() const noexcept { return truncated_; }

  void clear() {
    steps_.clear();
    search_steps_ = 0;
    brackets_ = 0;
    truncated_ = false;
  }

 private:
  std::size_t max_steps_;
  std::int64_t search_steps_ = 0;
  std::int64_t brackets_ = 0;
  bool truncated_ = false;
  std::vector<SearchStep> steps_;
};

}  // namespace fpm::core
