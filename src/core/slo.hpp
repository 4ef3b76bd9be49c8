// Latency-SLO vocabulary for the partition service (core/server.hpp):
// per-request deadlines and priorities, the outcome taxonomy of a request
// under load (answered in full, answered approximately, or shed), the
// queue-delay estimator that admission control consults, and the
// degraded-answer construction with its computed relative-error bound.
//
// The paper's partitioner is an offline, always-successful solve; a serving
// front-end has to stay correct and responsive when demand exceeds
// capacity. The degradation path follows the self-adaptable-FPM line of
// work (Lastovetsky/Reddy/Rychkov/Clarke, arXiv:1109.3074): when a full
// solve cannot meet its deadline, answer from the previous solution of the
// same model fingerprint — rescaled to the requested n — together with a
// bound on how far that answer can be from optimal, so the caller decides
// whether the approximation is acceptable.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/partition.hpp"

namespace fpm::core {

class CompiledSpeedList;

/// Request importance class. Under overload the server sheds Low before
/// Normal before High; within a class, the latest deadline goes first.
enum class Priority : std::uint8_t { Low = 0, Normal = 1, High = 2 };

/// Number of priority classes (array sizing for per-class state).
inline constexpr std::size_t kPriorityClasses = 3;

const char* to_string(Priority priority) noexcept;

/// Per-request service-level objective. The default (no deadline) request
/// is never deadline-shed and sorts after every deadline-carrying request
/// of its priority class.
struct Slo {
  /// Completion budget in seconds, measured from submission; <= 0 means no
  /// deadline (the request is always admitted and never expires).
  double deadline_s = 0.0;
  Priority priority = Priority::Normal;
  /// When the deadline cannot be met, prefer an approximate answer (with a
  /// computed error bound) over an outright shed. Set false to force a
  /// hard reject instead — e.g. callers that cannot act on an approximate
  /// distribution.
  bool allow_degraded = true;

  bool has_deadline() const noexcept { return deadline_s > 0.0; }
};

/// What became of one request.
enum class ServeStatus : std::uint8_t {
  Ok,        ///< full engine answer (exact, bit-identical to core::partition)
  Degraded,  ///< approximate answer from the hint store, error_bound valid
  Shed,      ///< no answer; shed_reason says why
};

/// Why a request was shed (or would have been, for Degraded answers that
/// replaced a shed).
enum class ShedReason : std::uint8_t {
  None,       ///< not shed
  Admission,  ///< predicted queue delay + service time exceeds the deadline
  QueueFull,  ///< displaced from a full queue (lowest priority, latest
              ///< deadline first)
  Expired,    ///< deadline passed while the request waited in the queue
  Shutdown,   ///< server drained or destroyed before the request ran
};

const char* to_string(ServeStatus status) noexcept;
const char* to_string(ShedReason reason) noexcept;

/// Outcome of one SLO-aware request. Exactly one of the three statuses
/// holds; `result` is meaningful for Ok and Degraded only.
struct ServeResult {
  ServeStatus status = ServeStatus::Ok;
  ShedReason shed_reason = ShedReason::None;
  /// Engine output (Ok) or the degraded distribution (Degraded; its stats
  /// carry algorithm = "degraded"). Empty when Shed.
  PartitionResult result{};
  /// Degraded only: a bound B >= 0 such that the answer's makespan is at
  /// most (1 + B) times the makespan of ANY feasible exact allocation —
  /// in particular it dominates the true relative error against a cold
  /// solve (see degraded_answer()).
  double error_bound = 0.0;
  /// Submission-to-completion wall time in seconds.
  double latency_s = 0.0;
  /// False when the request carried a deadline and the answer (or shed)
  /// came after it.
  bool deadline_met = true;

  bool answered() const noexcept { return status != ServeStatus::Shed; }
};

/// Degraded-answer construction: the previous allocation of the same model
/// list (prev_counts summing to prev_n) rescaled linearly to n, with the
/// largest-remainder rounding fix so the counts sum to exactly n.
struct DegradedAnswer {
  Distribution distribution;
  double makespan = 0.0;     ///< of the degraded distribution
  double error_bound = 0.0;  ///< relative bound vs the exact optimum
};

/// Builds the degraded answer for partitioning n elements over `speeds`
/// from a previous solution (`prev_counts` for `prev_n` over the same
/// models). Returns std::nullopt when the inputs cannot produce a usable
/// answer (size mismatch, non-positive totals, or a distribution whose
/// makespan is not finite — e.g. rescaling pushed a processor beyond any
/// modelled size).
///
/// The error bound is rigorous under the library's single-crossing
/// assumption (x·c - s(x) strictly increasing in x): any feasible integer
/// allocation of n elements has makespan at least 1/c for every slope c
/// with total_size_at(speeds, c) <= n. The construction finds such a
/// slope c_hi within a factor 2^(1/64) of the optimal c*, and reports
///     error_bound = makespan(degraded) * c_hi - 1  >=  true relative error
/// The answer brackets c* for free: its own line 1/makespan has total
/// >= n, and, when every count is positive, the line through its fastest
/// processor has total <= n. A log-space secant on the compiled models
/// closes the bracket, usually in zero to two intersect_all sweeps (none,
/// and no compilation, when the rescaled answer is already balanced to
/// within 2^(1/64)).
///
/// `compiled`, when given, is `speeds` compiled (CompiledSpeedList::compile
/// of these very objects) and the sweeps run on it; the answer is the same
/// bit for bit. Without it the list is compiled on the first sweep.
std::optional<DegradedAnswer> degraded_answer(
    const SpeedList& speeds, std::int64_t n,
    std::span<const std::int64_t> prev_counts, std::int64_t prev_n,
    const CompiledSpeedList* compiled = nullptr);

/// Queue-delay estimator: an exponentially weighted moving average of
/// observed per-request service times, kept per priority class, multiplied
/// by the number of queued requests a newcomer would wait behind. Admission
/// control asks it "if this request joins the queue now, when would it
/// finish?" and sheds requests whose deadline the answer already breaks.
///
/// Thread-safe and lock-free: cells are relaxed atomics. Concurrent
/// record() calls may lose an update — the estimate is a heuristic, not an
/// accounting value, and a lost sample only delays convergence.
class QueueDelayEstimator {
 public:
  /// `alpha` is the EWMA weight of the newest sample (0 < alpha <= 1).
  explicit QueueDelayEstimator(double alpha = 0.2) noexcept;

  /// Records one observed service time (seconds) for `priority`.
  void record(Priority priority, double service_s) noexcept;

  /// Current expected service time for one request of `priority`. Falls
  /// back to the all-class average while the class has no samples yet, and
  /// to 0 (optimistic: admit) while nothing has been observed at all.
  double service_estimate(Priority priority) const noexcept;

  /// Expected queue delay for a request of `priority` entering a queue
  /// with `jobs_ahead` requests it must wait behind, drained by `workers`
  /// threads.
  double queue_delay(Priority priority, std::size_t jobs_ahead,
                     unsigned workers) const noexcept;

  std::int64_t samples(Priority priority) const noexcept;

 private:
  struct Cell {
    std::atomic<double> ewma{0.0};
    std::atomic<std::int64_t> count{0};
  };
  void update(Cell& cell, double service_s) noexcept;
  static double read(const Cell& cell) noexcept;

  double alpha_;
  std::array<Cell, kPriorityClasses> per_class_;
  Cell all_;
};

}  // namespace fpm::core
