// Shared vocabulary of the repository benchmark (bench/perf): run options,
// the per-run result with its correctness accounting, quantiles with a
// minimum-sample rule, the in-memory span recorder of traced runs, the
// per-layer replay of sampled requests, and report(), which turns what a
// timed window observed into the metrics BENCHMARK.json names.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "core/server.hpp"
#include "obs/metrics.hpp"

namespace fpm::perf {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// The measured window. No default: the run length is BENCHMARK.json's
  /// run_seconds, passed in by run.py, so both sides of a comparison use it.
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;  ///< traced runs write their spans here ("" = not)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 0;  ///< timings: how many samples the value came from
};

/// One workload run: request accounting, every correctness problem found,
/// measurement-validity warnings, and the metrics of the requested kind
/// (end-to-end or per-layer).
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< requests that threw or failed verification
  std::vector<std::string> problems;  ///< why the run is not correct
  std::vector<std::string> invalid;   ///< why its timings are suspect
  std::vector<Metric> metrics;

  /// Counts one failed request and remembers why.
  void fail(const std::string& why);
  /// A correctness problem that is no single request's fault (accounting
  /// mismatch, a metric that could not be computed).
  void problem(const std::string& why);
  bool correct() const { return failed == 0 && problems.empty(); }
  bool valid() const { return invalid.empty(); }
  void add(std::string name, double value, std::string unit,
           std::int64_t samples = 0);
};

/// Durations recorded into a fixed-memory log-linear histogram (the
/// HdrHistogram layout): exact to the nanosecond below 2048 ns, 1/1024
/// relative resolution above, clamped at 2^40 ns. Memory does not grow with
/// the number of requests a run takes, so peak RSS measures the system
/// rather than the benchmark's sample buffers.
class Samples {
 public:
  void add_ms(double ms);
  void merge(const Samples& other);
  std::int64_t count() const noexcept { return count_; }
  /// Whether at least ten samples lie beyond the q-quantile (so the p99
  /// needs 1000).
  bool observed(double q) const noexcept;
  /// The q-quantile (0 <= q <= 1) in ms: the rank q * (count - 1),
  /// interpolated linearly inside its bucket. Throws std::runtime_error
  /// unless observed(q): a tail the run did not observe is not reported as
  /// if it had been.
  double quantile_ms(double q) const;
  /// quantile_ms without the observed() rule (0 without samples), for a
  /// run that marks its timings invalid instead.
  double estimate_ms(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr std::size_t kBuckets = (2 + 30) << kSubBits;
  std::vector<std::int64_t> counts_ = std::vector<std::int64_t>(kBuckets);
  std::int64_t count_ = 0;
};

/// Median without the sample rule (the small per-layer sample sets).
double median(std::vector<double> xs);
/// The q-quantile (0 <= q <= 1) of xs, interpolated linearly between ranks.
double quantile(std::vector<double> xs, double q);

double seconds_between(Clock::time_point t0, Clock::time_point t1);
/// User + system CPU seconds of the whole process (every thread).
double process_cpu_s();
/// Peak resident set of this process image, in MiB.
double peak_rss_mb();
/// SplitMix64 finalizer: a well-mixed hash of one 64-bit value.
std::uint64_t mix64(std::uint64_t x);

/// The random stream of client `client` under run seed `seed`. Hashing the
/// seed before adding the client keeps streams distinct across seeds: no
/// (seed, client) pair reproduces another seed's client.
inline std::uint64_t client_seed(std::uint64_t seed, int client) {
  return mix64(mix64(seed) + 1 + static_cast<std::uint64_t>(client));
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

/// The measured run is cut into windows of about this length (two burst
/// periods of serve_overload). Each window timing and rate is the value of
/// the run's better tenth of windows: the 10th percentile over windows of a
/// lower-is-better metric, the 90th of a higher-is-better one. The host's
/// slow phases last from a second to minutes and only ever slow a window,
/// so the better tail estimates the program's own speed; over ten seeds the
/// window median spread by 8-22%, the better tenth by 3-9% (README.md).
inline constexpr double kWindowS = 0.4;
inline constexpr double kBetterTail = 0.1;

/// The windows tiling one run: max(1, round(seconds / kWindowS)) of equal
/// length from `start`.
class Windows {
 public:
  Windows(Clock::time_point start, double seconds);
  std::size_t count() const noexcept { return count_; }
  double length_s() const noexcept { return length_s_; }
  /// Start of window k (k == count() gives the end of the run).
  Clock::time_point boundary(std::size_t k) const;
  /// The window holding t, clamped to the run.
  std::size_t at(Clock::time_point t) const;
  /// Seconds from the start of the run to t.
  double offset_s(Clock::time_point t) const;

 private:
  Clock::time_point start_;
  std::size_t count_;
  double length_s_;
};

/// Appends to `marks` the process CPU time for every window boundary up to
/// `now` that has none yet (marks[k] belongs to boundary k). One thread
/// calls it as it passes the boundaries; finish_cpu() adds the marks still
/// missing once the run's last answer is in.
void mark_cpu(const Windows& windows, Clock::time_point now,
              std::vector<double>& marks);
void finish_cpu(const Windows& windows, std::vector<double>& marks);

/// One client's tallies per window. Records arrive in window order: a
/// closed loop files a request under its completion time, an open loop
/// under its due time (it takes answers in send order).
class WindowLog {
 public:
  explicit WindowLog(const Windows& windows);
  /// One finished request, filed at time `at`. `latency_ms` is given for
  /// full answers only (NaN otherwise).
  void record(Clock::time_point at, bool answered, bool on_time,
              double latency_ms);
  /// Closes the last window; call once after the last record.
  void close();
  /// Records per second in window k, from the pace between its first and
  /// its last record (a count over a fixed window would only take whole
  /// values); 0 for an empty window.
  double pace(std::size_t k) const;

  std::vector<std::int64_t> attempted, answered, on_time;
  /// Median latency of each window's full answers; NaN where the window had
  /// fewer than 20 (ten beyond the median, as Samples requires).
  std::vector<double> p50_ms;

 private:
  void settle(std::size_t window);
  Windows windows_;
  std::vector<double> first_s_, last_s_;
  std::size_t open_ = 0;
  std::vector<double> latencies_;
};

/// Builds a workload's state `reps` times and keeps the last one; `setup_s`
/// receives the median CPU time of a build, over every thread of the
/// process (the lane pool's and the server workers' work counts). Wall time
/// would mostly measure how fast the host wakes idle threads: on the first
/// host the wall-clock median of nine p = 4096 set-ups ranged 0.09-0.22 s
/// from run to run while their CPU time stayed within 0.131-0.140 s.
/// Destroying the previous state happens outside the timed part.
template <typename Build>
auto build_median(int reps, Build build, double& setup_s) {
  std::vector<double> times;
  decltype(build()) kept;
  for (int r = 0; r < reps; ++r) {
    const double t0 = process_cpu_s();
    auto state = build();
    times.push_back(process_cpu_s() - t0);
    kept = std::move(state);
  }
  setup_s = median(times);
  return kept;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span names. Request wraps one real call on the measured path; Replay
/// groups the per-layer replays of one sampled request, each a child span.
enum class SpanName : std::uint16_t {
  Request,
  Replay,
  Fingerprint,
  Compile,
  Bracket,
  Sweep,
  FineTune,
  Engine,
  Key,
  CacheInsert,
  CacheLookup,
  Degrade,
  Vgb,
  VgbGroupSolve,
  ServerReplay,
};
const char* to_string(SpanName name) noexcept;

struct Span {
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;
  std::int32_t parent = -1;  ///< index in the same span list, -1 = root
  SpanName name = SpanName::Request;
};

/// Append-only span store owned by one thread; spans stay in memory until
/// the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  std::int32_t record(SpanName name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t request,
                      std::int32_t parent = -1);
  /// Opens a parent span; close() ends it once its children ran.
  std::int32_t open(SpanName name, std::uint64_t request);
  void close(std::int32_t index);
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::int64_t ns(Clock::time_point t) const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Concatenates the tracers' spans, re-basing each list's parent indices.
std::vector<Span> merge(std::span<const Tracer* const> tracers);

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

/// Writes spans as CSV (index,parent,name,request,start_us,end_us,self_us):
/// every span except Request spans of requests past the replay window.
void write_spans(const std::string& path, std::span<const Span> spans,
                 std::span<const std::int64_t> self_ns);

// ---------------------------------------------------------------------------
// What a timed window observed
// ---------------------------------------------------------------------------

/// Filled by a workload, turned into metrics by report(). Latencies run
/// from when a request was due to its answer: the scheduled send time in
/// an open loop, the call itself in a closed loop. They cover full answers
/// only; degraded answers, near-instant by construction, count through
/// goodput and the exact ratio. The lag is how late the client sent: after
/// the schedule in an open loop, after the previous answer in a closed
/// loop.
struct Live {
  double setup_s = 0.0;
  std::vector<WindowLog> windows;  ///< one per client
  /// Process CPU seconds at each window boundary (count + 1 marks).
  std::vector<double> cpu_marks;
  Samples latency;  ///< full (exact) answers, the whole run
  Samples lag;      ///< send time minus due time
  std::int64_t exact = 0;  ///< full engine (or cache) answers
  std::int64_t degraded = 0;
  std::int64_t shed = 0;
  std::int64_t shed_admission = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_expired = 0;
  std::int64_t deadline_misses = 0;
  // Process-wide obs deltas over the window (ObsWindow).
  std::int64_t engine_calls = 0;
  std::int64_t warm_hits = 0;
  std::int64_t warm_iterations_saved = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  std::int64_t serves = 0;  ///< serve-latency histogram samples
  double service_p50_ms = 0.0;
  double service_mean_ms = 0.0;
  /// Mean server-measured latency (submission to answer) of full answers.
  double served_latency_mean_ms = 0.0;
  std::vector<double> queue_depth;  ///< gauge samples, every 10 ms
  // VGB replays.
  double vgb_groups = 0.0;  ///< summed over replays
  std::vector<double> vgb_partition_share;
};

/// Snapshot of the process-wide obs counters and the serve-latency
/// histogram; close() stores the deltas into a Live.
class ObsWindow {
 public:
  ObsWindow();
  void close(Live& live) const;

 private:
  std::int64_t engine_calls_, warm_hits_, warm_saved_;
  std::int64_t hits_, misses_, evictions_;
  obs::Histogram::Snapshot service_;
};

// ---------------------------------------------------------------------------
// Per-layer replay
// ---------------------------------------------------------------------------

/// Every 16th of the first 1024 requests is replayed in a traced run: a
/// fixed set, so the replay counts repeat exactly for one seed.
inline constexpr std::uint64_t kReplayEvery = 16;
inline constexpr std::uint64_t kReplayWindow = 1024;

/// Sums over the replayed requests of their deterministic counts, plus
/// per-sample derived times.
struct LayerCounts {
  std::int64_t samples = 0;
  double sweeps = 0.0;  ///< search sweeps: search_intersect_solves / p
  std::int64_t iterations = 0;
  std::int64_t speed_evals = 0;
  std::int64_t intersect_solves = 0;
  std::int64_t search_intersect_solves = 0;
  std::int64_t bracket_saturations = 0;
  std::int64_t finetune_speed_evals = 0;
  std::int64_t simd_entries = 0;
  std::int64_t scalar_entries = 0;
  std::int64_t parallel_sweeps = 0;
  std::vector<double> search_share;  ///< sweeps x sweep time / engine time
  std::vector<double> overhead_us;   ///< engine - bracket - sweeps - fine-tune
};

/// Replays the partition problem (speeds, n) of request `request` through
/// each layer's public entry point — fingerprint, compile, bracket, engine
/// (under PrecompiledGuard), one sweep, fine-tune, cache key, cache insert
/// and lookup on `cache`, degraded answer — each in a child span of one
/// Replay span. Verifies what the replay produces (the fine-tune reproduces
/// the engine's answer, the cached copy is identical, the degraded bound
/// dominates its true error) into `result`.
void replay_layers(Tracer& tracer, std::uint64_t request,
                   const core::SpeedList& speeds, std::int64_t n,
                   core::PartitionCache& cache, LayerCounts& counts,
                   RunResult& result);

/// For workloads without a server of their own: serves each problem once
/// through a one-worker PartitionServer via submit(), so the server-layer
/// times (service, queue wait) are measured on every workload.
struct Problem {
  const core::SpeedList* speeds;
  std::int64_t n;
};
void replay_through_server(Tracer& tracer, std::span<const Problem> problems,
                           Live& live, RunResult& result);

/// The window timings (latency_p50_ms, throughput_rps, goodput_rps,
/// cpu_s_per_request) in every run, plus the end-to-end metrics (untraced
/// run) or the other per-layer metrics (traced run).
void report(const Options& options, Live& live, const LayerCounts& counts,
            std::span<const Span> spans, RunResult& result);

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Sum-to-n, size p and non-negative counts; records a failure otherwise.
bool check_answer(const core::Distribution& d, std::size_t p, std::int64_t n,
                  RunResult& result, const char* what);

/// Makespan within the integer slack of exact_optimum (the rule of
/// tests/test_fuzz_partition.cpp).
void check_near_optimal(const core::SpeedList& speeds, std::int64_t n,
                        const core::Distribution& d, RunResult& result);

/// Bit-identical to a direct core::partition() of the same problem.
void check_matches_engine(const core::SpeedList& speeds, std::int64_t n,
                          const core::Distribution& d, RunResult& result,
                          const char* what);

/// The degraded answer's bound dominates its true relative error against
/// the engine's exact solve.
void check_degraded_bound(const core::SpeedList& speeds, std::int64_t n,
                          const core::Distribution& d, double bound,
                          RunResult& result);

/// A seeded 1-in-64 draw of the requests whose answers are checked against
/// exact_optimum.
inline bool exactness_sampled(std::uint64_t seed, std::uint64_t request) {
  return mix64(seed ^ mix64(request)) % 64 == 0;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  RunResult (*run)(const Options&);
};
std::span<const Workload> workloads();

}  // namespace fpm::perf
