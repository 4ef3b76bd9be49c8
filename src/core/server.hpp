// Concurrent partitioning service: a fixed worker pool and a sharded LRU
// result cache in front of the core::partition() engine, with per-request
// latency SLOs — deadlines, priorities, admission control, load shedding,
// and degraded answers under overload.
//
// Production deployments of the partitioner (schedulers, rebalancing loops,
// what-if explorers) issue many partition calls against a small set of
// recurring (model, n, policy) triples. PartitionServer answers repeats
// from a thread-safe cache keyed by the CompiledSpeedList content
// fingerprint and fans cache misses out over a fixed pool of worker
// threads; a hint store keeps the last solve of each fingerprint for warm
// starts and degraded answers, and, while requests of that model list wait
// in the queue, its compiled model, so their misses and degraded answers
// compile it once. Both stores are one detail::ShardedLru (16 lock shards,
// LRU per shard). Full answers are bit-identical to calling
// core::partition() directly: the cache stores what the engine returned.
//
// When offered load exceeds capacity the server degrades deliberately
// instead of letting the queue grow without bound:
//   - a QueueDelayEstimator (EWMA of observed service times per priority
//     class, times the queued jobs ahead of the newcomer per worker)
//     predicts each request's completion time at submission;
//   - the admission controller sheds requests that cannot meet their
//     deadline — and a bounded queue displaces the lowest-priority,
//     latest-deadline request first;
//   - instead of rejecting outright, a sheddable request whose model
//     fingerprint has been solved before is answered from the hint store:
//     the previous distribution linearly rescaled to the requested n,
//     tagged with a computed relative-error bound (core/slo.hpp) so the
//     caller can decide whether to accept the approximation.
// Every request submitted with an SLO ends in exactly one of three
// buckets — admitted (full answer), degraded, or shed — so
//     offered == admitted + degraded + shed
// holds at all times (slo_stats(), mirrored in obs::metrics()).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/detail/sharded_lru.hpp"
#include "core/policy.hpp"
#include "core/slo.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {

/// One partitioning problem of a batch. The speed-function objects are
/// borrowed: they must stay alive until the request's result is available
/// (run_batch() and drain() both guarantee the pool is done with them
/// before returning; the destructor sheds still-queued requests without
/// touching their models).
struct BatchRequest {
  SpeedList speeds;
  std::int64_t n = 0;
  PartitionPolicy policy{};
  /// Deadline / priority / degradation consent. Default: no deadline —
  /// always admitted (subject to queue capacity), never expires.
  Slo slo{};
};

struct ServerOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  unsigned threads = 0;
  /// Total cached results across the server's 16 cache shards (LRU per
  /// shard, rounded up per shard); 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Keep a per-fingerprint slope hint beside the result cache and install
  /// it as a PartitionHint on cache misses, so near-miss traffic (same
  /// models, nearby n or different tuning) warm-starts instead of solving
  /// cold. Results stay bit-identical; only the search cost changes.
  /// Observer-carrying policies always run cold and never update hints.
  /// The hint store also feeds the degraded-answer path.
  bool warm_start = true;
  /// Total remembered per-fingerprint hints across all hint shards; the
  /// store evicts least-recently-used entries beyond this (like the result
  /// cache), so fingerprint churn cannot grow it without bound. Minimum 1
  /// per shard.
  std::size_t hint_capacity = 4096;
  /// Upper bound on queued (not yet running) requests; 0 = unbounded.
  /// When the queue is full, a submission displaces the lowest-priority,
  /// latest-deadline request — which is degraded or shed.
  std::size_t max_queue_depth = 0;
};

/// Aggregate cache counters (monotonic except `entries`/`hint_entries`).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  /// Requests that bypassed the cache: observer-carrying policies (their
  /// step-trace side effects must fire on every call), model lists with a
  /// Generic entry (keyed by object address, which a later model may
  /// reuse), and every request served with caching disabled
  /// (cache_capacity = 0). Counted so that hits + misses + uncacheable
  /// always equals the serve() call count.
  std::int64_t uncacheable = 0;
  std::size_t entries = 0;  ///< currently cached results
  /// Payload the cached results hold: each entry's key plus its packed
  /// counts, allocator overhead excluded.
  std::size_t bytes = 0;
  /// Warm-start hint store occupancy and LRU evictions (bounded by
  /// ServerOptions::hint_capacity).
  std::size_t hint_entries = 0;
  std::int64_t hint_evictions = 0;
  /// Compiled models the hint store holds: at most one per model list with
  /// requests waiting in the queue, none once the queue is empty.
  std::size_t models_held = 0;
};

/// SLO accounting for requests submitted through the deadline-aware entry
/// points (submit/run_batch/serve_slo; the plain serve() overload has no
/// SLO semantics and is not counted here). All monotonic.
/// Invariant: offered == admitted + degraded + shed.
struct SloStats {
  std::int64_t offered = 0;   ///< SLO requests received
  std::int64_t admitted = 0;  ///< answered in full by the engine (or cache)
  std::int64_t degraded = 0;  ///< answered approximately from the hint store
  std::int64_t shed = 0;      ///< not answered; the per-reason split below
  std::int64_t shed_admission = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_expired = 0;
  std::int64_t shed_shutdown = 0;
  /// Answers (full or degraded) delivered after their deadline.
  std::int64_t deadline_misses = 0;
  /// Most recent queue-delay estimate (seconds, Normal priority).
  double queue_delay_estimate_s = 0.0;
};

/// Sharded, thread-safe LRU map from partition-request keys to results
/// (a detail::ShardedLru plus hit/miss/eviction counts). Concurrent lookups
/// of different keys rarely contend; eviction is LRU per shard. Each entry
/// keeps the result's stats plus its counts packed as unsigned LEB128 of
/// each count's two's-complement value (exact for every int64; 2-3 bytes a
/// count on realistic n), so a hit returns the stored result bit for bit.
class PartitionCache {
 public:
  PartitionCache(std::size_t capacity, std::size_t shards);
  /// Takes the entries still held out of the server.cache.bytes gauge.
  ~PartitionCache();

  /// True plus a copy of the cached result on a hit (the entry becomes the
  /// shard's most recently used); false on a miss. Counts either way.
  bool lookup(const std::string& key, PartitionResult& out) {
    return find(key, out, /*count_miss=*/true);
  }

  /// Like lookup(), but a miss is not counted — for opportunistic probes
  /// (the admission fast path) whose miss will be followed by a counted
  /// lookup or an explicit miss on the serving path.
  bool peek(const std::string& key, PartitionResult& out) {
    return find(key, out, /*count_miss=*/false);
  }

  /// Inserts or refreshes `key`, evicting the shard's least recently used
  /// entry beyond capacity. Concurrent same-key inserts keep one winner.
  /// Returns true when the insert displaced an existing entry.
  bool insert(const std::string& key, const PartitionResult& value);

  void clear();
  CacheStats stats() const;
  std::size_t capacity() const noexcept { return lru_.capacity(); }

  /// The canonical cache key: compiled-model fingerprint | n | formatted
  /// policy | capacity bounds. Policies with equal fingerprints, n, and
  /// observable options map to the same entry.
  static std::string make_key(std::uint64_t fingerprint, std::int64_t n,
                              const PartitionPolicy& policy);
  /// The key PartitionServer files `speeds` under: the key above followed
  /// by `| check`, the fingerprint walk's second 64-bit word, so entries
  /// match on 128 bits (no compilation — CompiledSpeedList::fingerprint_of
  /// is allocation-free).
  static std::string make_key(const SpeedList& speeds, std::int64_t n,
                              const PartitionPolicy& policy);

 private:
  /// One cached result: the stats as returned, and `processors` counts
  /// packed into `counts`.
  struct Packed {
    PartitionStats stats;
    std::string counts;
    std::size_t processors = 0;
  };

  bool find(const std::string& key, PartitionResult& out, bool count_miss);
  /// The payload one entry holds: its key plus its packed counts.
  static std::int64_t held(const std::string& key, const Packed& entry) {
    return static_cast<std::int64_t>(key.size() + entry.counts.size());
  }
  /// Adds `delta` to the held payload and the server.cache.bytes gauge.
  void account(std::int64_t delta) noexcept;

  detail::ShardedLru<std::string, Packed> lru_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> evictions_{0};
  std::atomic<std::int64_t> bytes_{0};
  obs::Gauge& bytes_gauge_;
};

/// A long-lived partitioning service: serve() for synchronous calls on the
/// caller's thread, serve_slo() for synchronous deadline-aware calls,
/// submit()/run_batch() to fan work out over the pool with admission
/// control. All entry points share the cache and may be called
/// concurrently.
class PartitionServer {
 public:
  explicit PartitionServer(ServerOptions options = {});

  /// Sheds every still-queued request (ShedReason::Shutdown — their
  /// promises are fulfilled, never broken), lets in-flight requests
  /// finish, and joins the pool.
  ~PartitionServer();

  PartitionServer(const PartitionServer&) = delete;
  PartitionServer& operator=(const PartitionServer&) = delete;

  /// Partitions on the calling thread, consulting the cache first. A
  /// cache hit returns the stored result verbatim (the key is computed via
  /// the allocation-free fingerprint, no compilation); a miss compiles the
  /// model once, or takes the one the hint store holds while requests of
  /// the same model objects wait in the queue (docs/serving.md, "Shared
  /// compiled models"), runs the core::partition() overload that takes the
  /// compiled list, and stores. With warm_start on
  /// (the default), misses whose fingerprint was solved before — near-miss
  /// traffic: same models, nearby n — carry the remembered slope into the
  /// engine as a PartitionHint, which narrows the search without changing
  /// the distribution. Policies carrying an observer always compute cold
  /// (their callbacks must fire) and are never cached. Model lists with a
  /// Generic entry (a SpeedFunction subclass the compiled layer does not
  /// know) are never cached either — their fingerprint is an object
  /// address — but still warm-start, as does every request with caching
  /// disabled; both count as uncacheable.
  /// Every call records its latency in the serve-latency histogram.
  /// No SLO semantics: never shed, never degraded, not in slo_stats().
  PartitionResult serve(const SpeedList& speeds, std::int64_t n,
                        const PartitionPolicy& policy = {});

  /// Synchronous deadline-aware serve on the calling thread. Admission
  /// consults the service-time estimate only (no queue is involved): a
  /// request whose deadline is shorter than the predicted solve is
  /// degraded (hint store permitting) or shed without spending the solve.
  /// Admitted requests run exactly like serve() and additionally report
  /// latency and deadline_met.
  ServeResult serve_slo(const SpeedList& speeds, std::int64_t n,
                        const PartitionPolicy& policy = {}, Slo slo = {});

  /// Enqueues one request for the worker pool. The borrowed speed objects
  /// must outlive the future's completion. Engine exceptions (e.g. unknown
  /// algorithm id) surface through future::get(); such requests count as
  /// admitted.
  ///
  /// Requests carrying a deadline are admission-controlled at submission
  /// (predicted completion past the deadline => degraded or shed without
  /// queueing) and re-checked at dispatch (deadline already passed =>
  /// degraded or shed without solving). The queue serves highest priority
  /// first, earliest deadline within a class; when max_queue_depth is
  /// reached, the lowest-priority latest-deadline request (possibly the
  /// incoming one) is displaced. Every outcome fulfils the future — a
  /// shed request yields ServeStatus::Shed, never a broken promise.
  std::future<ServeResult> submit(BatchRequest request);

  /// Runs the whole batch over the pool; result i answers request i —
  /// shed and degraded entries are explicitly marked in place, never
  /// reordered or dropped. Every future is drained before the first engine
  /// exception (if any) is rethrown, so the borrowed speed objects of the
  /// batch are guaranteed unreferenced by the pool once this returns —
  /// normally or by exception.
  std::vector<ServeResult> run_batch(std::vector<BatchRequest> requests);

  /// Blocks until every queued and in-flight request has completed, or
  /// until `timeout` elapses — at which point every still-queued request
  /// is degraded or shed (ShedReason::Shutdown) and the in-flight ones are
  /// awaited. Returns true when the queue fully drained by work, false
  /// when the timeout shed anything. The server stays usable afterwards.
  bool drain(std::chrono::nanoseconds timeout);

  unsigned threads() const noexcept { return threads_; }
  /// Cache counters including the server-side uncacheable tally and the
  /// hint-store occupancy/evictions.
  CacheStats cache_stats() const;
  /// SLO accounting (offered == admitted + degraded + shed).
  SloStats slo_stats() const;
  /// The admission controller's current completion-time prediction for a
  /// request of `priority` joining the queue now (seconds).
  double predicted_delay(Priority priority) const;
  void clear_cache() { cache_.clear(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// Queue order: higher priority first (negated enum), then earliest
  /// deadline, then submission order. rbegin() is therefore the shedding
  /// victim: lowest priority, latest deadline, newest.
  using JobKey = std::tuple<int, Clock::time_point, std::uint64_t>;

  /// A request's model identity. The fingerprint keys the hint store; the
  /// fingerprint and the check word of the same walk
  /// (CompiledSpeedList::fingerprint_of) key the result cache together, a
  /// 128-bit match. `cacheable` is false when some entry is Generic (a
  /// model type the compiled layer does not know), whose fingerprint is its
  /// object address. A freed model's address can be reused by a different
  /// one, so such a key must not return cached answers. Hints stay keyed
  /// by it: the search verifies every hint.
  struct ModelKey {
    std::uint64_t fingerprint = 0;
    std::uint64_t check = 0;
    bool cacheable = true;
  };
  static ModelKey model_key(const SpeedList& speeds);

  /// A compiled model list and the check word of the key it was compiled
  /// under (its fingerprint is the hint-store key that holds it).
  struct HeldModel {
    std::shared_ptr<const CompiledSpeedList> list;
    std::uint64_t check = 0;
  };
  /// True when a request for `speeds` under `policy` may solve on a shared
  /// compilation: the list is cacheable (a Generic entry forwards to its
  /// object) and the policy neither carries an observer nor is bounded
  /// (which reads base(i) to compile its residual lists).
  static bool shares_model(const PartitionPolicy& policy, const ModelKey& key);
  /// True when `held` is the compilation of these very objects under this
  /// 128-bit key: same check word and speeds[i] == base(i) for every i, so
  /// its base() pointers name the caller's live objects.
  static bool fits(const HeldModel& held, const SpeedList& speeds,
                   std::uint64_t check);

  /// What arrive() records about an SLO request.
  struct Arrival {
    Clock::time_point submitted{};
    Clock::time_point deadline{};  ///< time_point::max() when none
    /// The request's model key, when the cache probe or submit() already
    /// computed it; the solve and the degrade path reuse it.
    std::optional<ModelKey> key{};
    /// Counted against its fleet's hint-store entry while it waits in the
    /// queue (leave_queue() uncounts it).
    bool waiting = false;
    /// The fleet's held model, taken as the request left the queue.
    HeldModel model{};
  };

  struct QueuedJob {
    BatchRequest request;
    std::promise<ServeResult> promise;
    Arrival arrival;
  };

  /// serve() with the request's model key when the caller already has it
  /// (nullopt: computed here if needed) and the model it took from the
  /// queue. Every entry point lands here, so a request walks its model
  /// list for the key at most once.
  PartitionResult serve(const SpeedList& speeds, std::int64_t n,
                        const PartitionPolicy& policy,
                        std::optional<ModelKey> key, HeldModel held);

  /// The prologue of serve_slo() and submit(): stamps `arrival`, counts
  /// the request offered and, when `probe_cache`, answers it from the cache
  /// — peek(), since a miss is counted later by serve(). Returns the
  /// accounted answer on a hit.
  std::optional<ServeResult> arrive(const BatchRequest& request,
                                    bool probe_cache, Arrival& arrival);
  /// Solves an admitted request on the calling thread, feeds the service
  /// time to the estimator, and accounts the answer. An engine exception
  /// counts as admitted and propagates.
  ServeResult solve_admitted(const BatchRequest& request,
                             const Arrival& arrival);
  /// Queued jobs a newcomer of `priority` waits behind. Caller holds
  /// queue_mu_.
  std::size_t jobs_ahead_locked(Priority priority) const;

  void worker_loop();
  void execute(QueuedJob job);
  /// Counts a request about to be queued against its fleet's hint-store
  /// entry, if the fleet has one and its requests may share a model.
  void join_queue(QueuedJob& job);
  /// Uncounts a request that left the queue (dequeued, displaced, rejected
  /// or stolen) and hands it the fleet's held model; the entry releases the
  /// model with its last waiting request. Runs once per job, later calls
  /// do nothing.
  void leave_queue(QueuedJob& job);
  /// The accounted Degraded (slo.allow_degraded and a usable previous
  /// solution in the hint store permitting) or Shed outcome for a request
  /// that will not get a full solve.
  ServeResult resolve_shed(const BatchRequest& request, ShedReason reason,
                           const Arrival& arrival);
  /// resolve_shed + fulfil, for a job leaving the queue.
  void degrade_or_shed(QueuedJob&& job, ShedReason reason);
  /// Removes and returns every queued job (caller fulfils the promises).
  /// Adjusts the per-class counts and the queue-depth gauge.
  std::vector<QueuedJob> steal_queue_locked();

  /// Cached references into the process registry (stable for its
  /// lifetime), so the hot path never takes the registry lock.
  struct Metrics {
    obs::Histogram& serve_latency;
    obs::Gauge& queue_depth;
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
    obs::Gauge& slo_queue_delay_us;
    obs::Histogram& slo_degrade;
    obs::Gauge& models_held;
    obs::Counter& models_reused;
  };

  /// The per-server tallies, each mirrored by one registry counter (which
  /// aggregates all servers). Indexes tally_ and tally_counters_.
  enum class Tally : std::size_t {
    Offered, Admitted, Degraded, ShedAdmission, ShedQueueFull, ShedExpired,
    ShedShutdown, DeadlineMisses, Uncacheable, HintEvictions, Count
  };
  static constexpr std::size_t kTallies =
      static_cast<std::size_t>(Tally::Count);
  void bump(Tally t) noexcept {
    tally_[static_cast<std::size_t>(t)].fetch_add(1, std::memory_order_relaxed);
    tally_counters_[static_cast<std::size_t>(t)]->add(1);
  }
  std::int64_t tally(Tally t) const noexcept {
    return tally_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
  }

  /// The remembered previous solution for one model fingerprint: the hint
  /// that warm-starts the next search (next_hint() of the last one), plus
  /// the distribution the degraded-answer path rescales. While `waiting`
  /// queued requests of the fleet count against the entry, it may hold
  /// their compiled model; it never holds one at waiting == 0.
  struct SlopeHint {
    PartitionHint hint;
    std::vector<std::int64_t> counts;
    std::size_t waiting = 0;
    HeldModel model{};
  };

  /// Under the entry's shard lock: keeps `held` when it fits the request,
  /// else takes the entry's model when that fits. Returns whether the entry
  /// wants a fresh compilation (its fleet has waiting requests and no
  /// fitting model is held).
  static bool pick_model(const SlopeHint& stored, const SpeedList& speeds,
                         std::uint64_t check, HeldModel& held);
  /// The compilation a miss or a degraded answer runs on: `held` when
  /// pick_model() found one (counted as reused); when `wanted`, a fresh
  /// compilation that the fleet's entry keeps; else nullptr (the caller
  /// compiles for itself).
  std::shared_ptr<const CompiledSpeedList> model_for(const SpeedList& speeds,
                                                     const ModelKey& key,
                                                     HeldModel held,
                                                     bool wanted);
  /// Adds `delta` to the held-model count and the server.models.held gauge.
  void count_held(std::int64_t delta) noexcept;

  /// Runs the engine on a compiled list: the fleet's held model when one
  /// fits, else a fresh compilation. With warm_start on, installs the
  /// stored hint for the fingerprint and refreshes the store from the
  /// result.
  PartitionResult partition_with_hint(const SpeedList& speeds, std::int64_t n,
                                      const PartitionPolicy& policy,
                                      const std::optional<ModelKey>& key,
                                      HeldModel held);

  /// Shared bookkeeping for an SLO answer: stamps latency and the deadline
  /// verdict, bumps the outcome tallies, and returns the answer.
  ServeResult account(ServeResult outcome, const Arrival& arrival);

  unsigned threads_;
  PartitionCache cache_;
  Metrics metrics_;
  bool warm_start_;
  std::size_t max_queue_depth_;
  QueueDelayEstimator estimator_;
  /// LRU-bounded, 16 shards picked by fingerprint % 16: fingerprint churn
  /// evicts the least recently touched hint.
  detail::ShardedLru<std::uint64_t, SlopeHint> hints_;
  std::atomic<std::int64_t> models_held_{0};
  std::array<std::atomic<std::int64_t>, kTallies> tally_{};
  std::array<obs::Counter*, kTallies> tally_counters_{};

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  ///< work available / stopping
  std::condition_variable idle_cv_;   ///< queue empty and nothing in flight
  std::map<JobKey, QueuedJob> queue_;
  std::array<std::size_t, kPriorityClasses> queued_per_class_{};
  std::size_t inflight_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// One-shot convenience: spins up a PartitionServer with `options`, runs
/// the batch, and tears the pool down. For recurring traffic keep a
/// PartitionServer alive instead, so the cache persists across batches.
std::vector<ServeResult> partition_batch(std::vector<BatchRequest> requests,
                                         const ServerOptions& options = {});

}  // namespace fpm::core
