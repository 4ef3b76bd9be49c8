// Process-wide observability for the partition engine: named counters,
// gauges, and fixed log-bucket latency histograms behind one thread-safe
// MetricsRegistry, plus JSON and Prometheus text exporters.
//
// The paper's central claim is that processor speed is a *function*
// observed under real conditions (performance bands, paging, transient
// load); a runtime built on that model has to be able to watch itself the
// same way. Every layer reports here: core::partition() rolls up
// per-algorithm invocation counts and the speed_evals/intersect_solves
// accounting of PartitionStats, the PartitionServer records serve latency
// and cache traffic, the Rebalancer its rounds and evacuations, and the
// mpp runtime its failure epochs and recovery durations. The registry is a
// process singleton (obs::metrics()) so one scrape sees the whole stack;
// docs/observability.md maps each metric to the paper concept it measures.
//
// Concurrency: counters and gauges are single relaxed atomics; histograms
// are lock-sharded like core::PartitionCache (each shard an independently
// locked bucket array, the recording thread picks its shard by thread id),
// so concurrent record() calls rarely contend and snapshot() never loses a
// sample. Metric objects are created on first use and live as long as the
// registry; references returned by counter()/gauge()/histogram() stay
// valid forever and may be cached by hot paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fpm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Instantaneous level (queue depth, entries); may go up and down.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Bucket layout of a Histogram: `buckets` upper bounds starting at
/// `first_bound` and growing geometrically by `growth`, plus one implicit
/// overflow bucket. The defaults cover 1 µs .. ~4 s in factor-2 steps —
/// sized for the serve/recovery latencies this library measures.
struct HistogramOptions {
  double first_bound = 1e-6;
  double growth = 2.0;
  std::size_t buckets = 22;
};

/// Fixed log-bucket histogram of non-negative samples (latencies in
/// seconds by convention). Lock-sharded: record() locks only the calling
/// thread's shard, snapshot() folds all shards into one consistent view.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  /// Records one sample (negative values clamp to zero; NaN is dropped).
  void record(double value) noexcept;

  struct Snapshot {
    std::vector<double> bounds;        ///< bucket upper bounds, ascending
    std::vector<std::int64_t> counts;  ///< per-bucket; size bounds+1 (last
                                       ///< = overflow beyond bounds.back())
    std::int64_t count = 0;            ///< total samples
    double sum = 0.0;                  ///< sum of all samples
  };
  Snapshot snapshot() const;

  const HistogramOptions& options() const noexcept { return options_; }
  void reset() noexcept;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::vector<std::int64_t> counts;
    std::int64_t count = 0;
    double sum = 0.0;
  };
  Shard& shard_for_this_thread() noexcept;

  HistogramOptions options_;
  std::vector<double> bounds_;
  std::vector<Shard> shards_;
};

/// RAII latency span: records the elapsed wall time (seconds) into a
/// histogram when destroyed, or earlier via stop().
class TimerSpan {
 public:
  explicit TimerSpan(Histogram& histogram) noexcept
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  TimerSpan(const TimerSpan&) = delete;
  TimerSpan& operator=(const TimerSpan&) = delete;
  ~TimerSpan() { stop(); }

  /// Records now and disarms the destructor; returns the elapsed seconds.
  double stop() noexcept {
    if (histogram_ == nullptr) return 0.0;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    histogram_->record(seconds);
    histogram_ = nullptr;
    return seconds;
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// One consistent read of a registry, in name order per kind.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};

/// Thread-safe name -> metric map. Lookup creates on first use; the
/// returned references are stable for the registry's lifetime. A name may
/// hold only one metric kind (std::invalid_argument otherwise).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `options` applies only on first creation of `name`.
  Histogram& histogram(std::string_view name, HistogramOptions options = {});

  /// Zeroes every value; registrations (and references) survive.
  void reset();

  MetricsSnapshot snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count", "sum", "buckets": [{"le", "count"}...]}}} — bucket counts
  /// are per-bucket, the final bucket ("le": "+Inf") is the overflow.
  std::string to_json() const;

  /// Prometheus text exposition format. Names are prefixed with "fpm_"
  /// and mapped to the legal charset ('.' and '-' become '_'); histogram
  /// series follow the cumulative _bucket/_sum/_count convention.
  std::string to_prometheus() const;

 private:
  struct Slot;
  Slot* find_locked(std::string_view name) const;

  mutable std::mutex mu_;
  std::vector<Slot*> slots_;  // owned; insertion order
};

/// The process-wide registry every fpm layer reports into.
MetricsRegistry& metrics();

/// Canonical metric names wired through the stack. Kept here (not in each
/// layer) so exporters, the CLI catalogue, and docs/observability.md agree.
namespace names {
// core::partition(): one invocation counter per registry algorithm id,
// plus rollups of the PartitionStats boundary counters.
inline constexpr const char* kPartitionInvocationsPrefix =
    "partition.invocations.";  // + algorithm id
inline constexpr const char* kPartitionSpeedEvals = "partition.speed_evals";
inline constexpr const char* kPartitionIntersectSolves =
    "partition.intersect_solves";
// Bracket expansions of the generic bisection that hit the 256-doubling cap
// with the curve still above the line (the solve then returns the saturated
// bracket's midpoint, not a true crossing — see speed_kernels.hpp).
inline constexpr const char* kPartitionBracketSaturations =
    "partition.intersect.bracket_saturations";
// Line solves spent on Figure 18's two lines (PartitionStats::
// figure18_lines): every search opened from Figure 18, and a cold secant
// start whose window is narrow or whose total-size curve is flat.
inline constexpr const char* kPartitionBracketFigure18Lines =
    "partition.bracket.figure18_lines";
// Batch-lane occupancy of CompiledSpeedList::intersect_all: entries solved
// by the vector kernels vs entries that took a scalar path (per-entry
// fallback lane, or vector-kernel punts recomputed scalar). The vector-path
// hit rate is simd_entries / (simd_entries + scalar_entries). One
// parallel_sweeps tick per intersect_all that split across the lane pool.
inline constexpr const char* kPartitionBatchSimdEntries =
    "partition.batch.simd_entries";
inline constexpr const char* kPartitionBatchScalarEntries =
    "partition.batch.scalar_entries";
inline constexpr const char* kPartitionBatchParallelSweeps =
    "partition.batch.parallel_sweeps";
// Which vector backend the batch lanes are running on, as an info gauge
// holding the core::SimdBackend enum value (0=off 1=portable 2=avx2
// 3=avx512 4=neon), plus a per-backend split of simd_entries so a fleet
// mixing ISAs can attribute its vector-path throughput per variant.
inline constexpr const char* kPartitionBatchBackend =
    "partition.batch.backend";
inline constexpr const char* kPartitionBatchSimdEntriesPortable =
    "partition.batch.simd_entries.portable";
inline constexpr const char* kPartitionBatchSimdEntriesAvx2 =
    "partition.batch.simd_entries.avx2";
inline constexpr const char* kPartitionBatchSimdEntriesAvx512 =
    "partition.batch.simd_entries.avx512";
inline constexpr const char* kPartitionBatchSimdEntriesNeon =
    "partition.batch.simd_entries.neon";
// Warm-start layer (PartitionHint): verified-hint hits, rejected hints, the
// iterations saved versus each hint's cold baseline, and the line solves
// spent opening warm brackets (adopted or stale).
inline constexpr const char* kPartitionWarmstartHits =
    "partition.warmstart.hits";
inline constexpr const char* kPartitionWarmstartStale =
    "partition.warmstart.stale";
inline constexpr const char* kPartitionWarmstartIterationsSaved =
    "partition.warmstart.iterations_saved";
inline constexpr const char* kPartitionWarmstartProbes =
    "partition.warmstart.probes";
// core::PartitionServer (aggregated over every server in the process).
inline constexpr const char* kServerServeLatency =
    "server.serve_latency_seconds";
inline constexpr const char* kServerQueueDepth = "server.queue_depth";
inline constexpr const char* kServerCacheHits = "server.cache.hits";
inline constexpr const char* kServerCacheMisses = "server.cache.misses";
inline constexpr const char* kServerCacheEvictions = "server.cache.evictions";
inline constexpr const char* kServerCacheUncacheable =
    "server.cache.uncacheable";
inline constexpr const char* kServerCacheBytes = "server.cache.bytes";
inline constexpr const char* kServerHintsEvicted = "server.hints.evicted";
// Compiled models the hint store holds for fleets with queued requests, and
// the misses and degraded answers served on one instead of compiling.
inline constexpr const char* kServerModelsHeld = "server.models.held";
inline constexpr const char* kServerModelsReused = "server.models.reused";
// SLO layer of the PartitionServer: deadline-aware requests only
// (submit/run_batch/serve_slo). offered == admitted + degraded + sheds.
inline constexpr const char* kServerSloOffered = "server.slo.offered";
inline constexpr const char* kServerSloAdmitted = "server.slo.admitted";
inline constexpr const char* kServerSloDegraded = "server.slo.degraded";
inline constexpr const char* kServerSloShedAdmission =
    "server.slo.shed.admission";
inline constexpr const char* kServerSloShedQueueFull =
    "server.slo.shed.queue_full";
inline constexpr const char* kServerSloShedExpired =
    "server.slo.shed.expired";
inline constexpr const char* kServerSloShedShutdown =
    "server.slo.shed.shutdown";
inline constexpr const char* kServerSloDeadlineMisses =
    "server.slo.deadline_misses";
inline constexpr const char* kServerSloQueueDelayMicros =
    "server.slo.queue_delay_us";
// Wall time of each degraded_answer() the server builds for a request it
// will not solve (rescale plus error-bound certificate).
inline constexpr const char* kServerSloDegradeSeconds =
    "server.slo.degrade_seconds";
// balance::Rebalancer.
inline constexpr const char* kRebalanceRounds = "rebalance.rounds";
inline constexpr const char* kRebalanceRepartitions =
    "rebalance.repartitions";
inline constexpr const char* kRebalanceEvacuations = "rebalance.evacuations";
// mpp runtime + recovery.
inline constexpr const char* kMppFailureEpochs = "mpp.failure_epochs";
inline constexpr const char* kMppRecoveryDuration =
    "mpp.recovery_duration_seconds";
inline constexpr const char* kMppRecoveries = "mpp.recoveries";
}  // namespace names

/// Static description of one catalogued metric, for the CLI and docs.
struct MetricInfo {
  const char* name;  ///< registry name ("…" marks a per-algorithm family)
  const char* kind;  ///< "counter" | "gauge" | "histogram"
  const char* help;  ///< one line, including the paper concept it measures
};

/// Every metric the library exports, in stack order.
std::span<const MetricInfo> metric_catalogue();

}  // namespace fpm::obs
