#include "core/server.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <iterator>
#include <utility>

#include "core/compiled.hpp"

namespace fpm::core {
namespace {

/// EWMA weight of the newest service-time sample in the queue-delay
/// estimator.
constexpr double kEwmaAlpha = 0.2;
/// Safety factor on the predicted completion time during admission: a
/// request is shed when predicted * slack exceeds its deadline budget.
constexpr double kAdmissionSlack = 1.0;
/// Lock shards of the server's result cache and of its hint store.
constexpr std::size_t kShards = 16;
/// Registry counters mirroring the per-server tallies, in
/// PartitionServer::Tally order.
constexpr const char* kTallyNames[] = {
    obs::names::kServerSloOffered,       obs::names::kServerSloAdmitted,
    obs::names::kServerSloDegraded,      obs::names::kServerSloShedAdmission,
    obs::names::kServerSloShedQueueFull, obs::names::kServerSloShedExpired,
    obs::names::kServerSloShedShutdown,  obs::names::kServerSloDeadlineMisses,
    obs::names::kServerCacheUncacheable, obs::names::kServerHintsEvicted,
};

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kDigits[(v >> shift) & 0xf]);
}

/// The result-cache key the server files a request under: make_key's
/// 64-bit key followed by the fingerprint walk's check word, so a hit
/// needs a 128-bit match.
std::string result_key(std::uint64_t fingerprint, std::uint64_t check,
                       std::int64_t n, const PartitionPolicy& policy) {
  std::string key = PartitionCache::make_key(fingerprint, n, policy);
  key.push_back('|');
  append_hex64(key, check);
  return key;
}

/// Each count as unsigned LEB128 of its two's-complement value: seven bits
/// a byte, low first, the high bit set on every byte but a count's last.
/// Exact for every int64, at most 10 bytes a count. Sized in one pass so
/// the string allocates once.
std::string pack_counts(const std::vector<std::int64_t>& counts) {
  std::size_t size = 0;
  for (const std::int64_t c : counts)
    size += 1 + (std::bit_width(static_cast<std::uint64_t>(c) | 1) - 1) / 7;
  std::string packed(size, '\0');
  char* at = packed.data();
  for (const std::int64_t c : counts) {
    auto v = static_cast<std::uint64_t>(c);
    for (; v >= 0x80; v >>= 7) *at++ = static_cast<char>(v | 0x80);
    *at++ = static_cast<char>(v);
  }
  return packed;
}

/// Decodes pack_counts() into `counts`, already sized to the packed count.
void unpack_counts(const std::string& packed,
                   std::vector<std::int64_t>& counts) {
  const auto* at = reinterpret_cast<const unsigned char*>(packed.data());
  for (std::int64_t& c : counts) {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const unsigned char b = *at++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) break;
    }
    c = static_cast<std::int64_t>(v);
  }
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------------------
// PartitionCache
// ---------------------------------------------------------------------------

PartitionCache::PartitionCache(std::size_t capacity, std::size_t shards)
    : lru_(capacity, shards),
      bytes_gauge_(obs::metrics().gauge(obs::names::kServerCacheBytes)) {}

PartitionCache::~PartitionCache() {
  bytes_gauge_.add(-bytes_.load(std::memory_order_relaxed));
}

void PartitionCache::account(std::int64_t delta) noexcept {
  bytes_.fetch_add(delta, std::memory_order_relaxed);
  bytes_gauge_.add(delta);
}

std::string PartitionCache::make_key(const SpeedList& speeds, std::int64_t n,
                                     const PartitionPolicy& policy) {
  std::uint64_t check = 0;
  const std::uint64_t fingerprint =
      CompiledSpeedList::fingerprint_of(speeds, nullptr, &check);
  return result_key(fingerprint, check, n, policy);
}

std::string PartitionCache::make_key(std::uint64_t fingerprint, std::int64_t n,
                                     const PartitionPolicy& policy) {
  std::string key;
  key.reserve(64);
  append_hex64(key, fingerprint);
  key.push_back('|');
  key += std::to_string(n);
  key.push_back('|');
  key += format_policy(policy);
  // format_policy covers the algorithm id and options but not the capacity
  // bounds, which change the bounded algorithm's answer — append them.
  for (const std::int64_t b : policy.bounds) {
    key.push_back('|');
    key += std::to_string(b);
  }
  return key;
}

bool PartitionCache::find(const std::string& key, PartitionResult& out,
                          bool count_miss) {
  const bool hit = lru_.find(key, [&out](const Packed& cached) {
    out.stats = cached.stats;
    out.distribution.counts.resize(cached.processors);
    unpack_counts(cached.counts, out.distribution.counts);
    return true;
  });
  if (hit) hits_.fetch_add(1, std::memory_order_relaxed);
  if (!hit && count_miss) misses_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool PartitionCache::insert(const std::string& key,
                            const PartitionResult& value) {
  if (lru_.capacity() == 0) return false;
  const std::vector<std::int64_t>& counts = value.distribution.counts;
  Packed packed{value.stats, pack_counts(counts), counts.size()};
  const std::int64_t bytes = held(key, packed);
  // Counted before the entry is visible, so a concurrent eviction or
  // clear() never takes out more than was put in.
  account(bytes);
  // A concurrent miss on the same key already computed and stored the
  // (identical) result; keep the incumbent.
  bool kept = false;
  const auto victim = lru_.put(key, std::move(packed),
                               [&kept](Packed&, Packed&) { kept = true; });
  if (kept) account(-bytes);
  if (!victim) return false;
  account(-held(victim->first, victim->second));
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void PartitionCache::clear() {
  std::int64_t dropped = 0;
  lru_.clear([&dropped](const std::string& key, const Packed& entry) {
    dropped += held(key, entry);
  });
  account(-dropped);
}

CacheStats PartitionCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = lru_.size();
  s.bytes = static_cast<std::size_t>(bytes_.load(std::memory_order_relaxed));
  return s;
}

// ---------------------------------------------------------------------------
// PartitionServer: construction / teardown
// ---------------------------------------------------------------------------

PartitionServer::PartitionServer(ServerOptions options)
    : threads_(options.threads != 0
                   ? options.threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      cache_(options.cache_capacity, kShards),
      metrics_{
          obs::metrics().histogram(obs::names::kServerServeLatency),
          obs::metrics().gauge(obs::names::kServerQueueDepth),
          obs::metrics().counter(obs::names::kServerCacheHits),
          obs::metrics().counter(obs::names::kServerCacheMisses),
          obs::metrics().counter(obs::names::kServerCacheEvictions),
          obs::metrics().gauge(obs::names::kServerSloQueueDelayMicros),
          obs::metrics().histogram(obs::names::kServerSloDegradeSeconds),
          obs::metrics().gauge(obs::names::kServerModelsHeld),
          obs::metrics().counter(obs::names::kServerModelsReused)},
      warm_start_(options.warm_start),
      max_queue_depth_(options.max_queue_depth),
      estimator_(kEwmaAlpha),
      hints_(std::max<std::size_t>(1, options.hint_capacity), kShards) {
  static_assert(std::size(kTallyNames) == kTallies);
  for (std::size_t i = 0; i < kTallies; ++i)
    tally_counters_[i] = &obs::metrics().counter(kTallyNames[i]);
  workers_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

PartitionServer::~PartitionServer() {
  std::vector<QueuedJob> orphans;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
    orphans = steal_queue_locked();
  }
  queue_cv_.notify_all();
  // Fulfil every stolen promise before joining: a destructor must never
  // leave a broken promise behind. No degradation here — teardown should
  // not spend solves; callers who want best-effort answers call drain().
  for (QueuedJob& job : orphans) {
    job.request.slo.allow_degraded = false;
    degrade_or_shed(std::move(job), ShedReason::Shutdown);
  }
  for (std::thread& t : workers_) t.join();
}

std::vector<PartitionServer::QueuedJob> PartitionServer::steal_queue_locked() {
  std::vector<QueuedJob> stolen;
  stolen.reserve(queue_.size());
  for (auto& [key, job] : queue_) stolen.push_back(std::move(job));
  if (!stolen.empty())
    metrics_.queue_depth.add(-static_cast<std::int64_t>(stolen.size()));
  queue_.clear();
  queued_per_class_.fill(0);
  return stolen;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

void PartitionServer::worker_loop() {
  for (;;) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      const auto it = queue_.begin();
      job = std::move(it->second);
      const auto cls = static_cast<std::size_t>(job.request.slo.priority);
      queue_.erase(it);
      --queued_per_class_[cls];
      ++inflight_;
    }
    metrics_.queue_depth.add(-1);
    execute(std::move(job));
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_;
      if (inflight_ == 0 && queue_.empty()) idle_cv_.notify_all();
    }
  }
}

void PartitionServer::execute(QueuedJob job) {
  leave_queue(job);
  if (Clock::now() >= job.arrival.deadline) {
    // The deadline passed while the request waited in the queue; do not
    // spend a solve that is already late.
    degrade_or_shed(std::move(job), ShedReason::Expired);
    return;
  }
  try {
    job.promise.set_value(solve_admitted(job.request, job.arrival));
  } catch (...) {
    // The error surfaces through the future exactly as the synchronous API
    // would throw it.
    job.promise.set_exception(std::current_exception());
  }
}

// ---------------------------------------------------------------------------
// Degradation, shedding and accounting
// ---------------------------------------------------------------------------

ServeResult PartitionServer::resolve_shed(const BatchRequest& request,
                                          ShedReason reason,
                                          const Arrival& arrival) {
  ServeResult outcome;
  outcome.status = ServeStatus::Shed;
  outcome.shed_reason = reason;  // for a degraded answer: what it averted
  // Observers expect a real search (their callbacks must fire per step);
  // bounded policies carry capacity constraints a rescaled distribution
  // would silently violate. Both get a plain shed.
  struct Previous {
    std::vector<std::int64_t> counts;
    std::int64_t n;
  };
  std::optional<Previous> prev;
  ModelKey key;
  bool share = false;
  HeldModel held = arrival.model;
  bool wanted = false;
  if (request.slo.allow_degraded && !request.speeds.empty() &&
      request.n >= 1 && !request.policy.observer &&
      request.policy.algorithm != kAlgorithmBounded) {
    key = arrival.key ? *arrival.key : model_key(request.speeds);
    share = shares_model(request.policy, key);
    hints_.find(key.fingerprint, [&](const SlopeHint& stored) {
      if (stored.counts.size() != request.speeds.size()) return false;
      prev = Previous{stored.counts, stored.hint.n};  // touched only if usable
      if (share)
        wanted = pick_model(stored, request.speeds, key.check, held);
      return true;
    });
  }
  std::optional<DegradedAnswer> answer;
  if (prev) {
    obs::TimerSpan span(metrics_.slo_degrade);
    const std::shared_ptr<const CompiledSpeedList> model =
        share ? model_for(request.speeds, key, std::move(held), wanted)
              : nullptr;
    answer = degraded_answer(request.speeds, request.n, prev->counts, prev->n,
                             model.get());
  }
  if (answer) {
    outcome.status = ServeStatus::Degraded;
    outcome.result.distribution = std::move(answer->distribution);
    outcome.result.stats.algorithm = kAlgorithmDegraded;
    outcome.error_bound = answer->error_bound;
  }
  return account(std::move(outcome), arrival);
}

void PartitionServer::degrade_or_shed(QueuedJob&& job, ShedReason reason) {
  leave_queue(job);
  job.promise.set_value(resolve_shed(job.request, reason, job.arrival));
}

ServeResult PartitionServer::account(ServeResult outcome,
                                     const Arrival& arrival) {
  const Clock::time_point now = Clock::now();
  outcome.latency_s = seconds_between(arrival.submitted, now);
  outcome.deadline_met =
      arrival.deadline == Clock::time_point::max() || now <= arrival.deadline;
  // A shed outcome always carries a reason; None would bucket with Shutdown.
  bump(outcome.status == ServeStatus::Ok         ? Tally::Admitted
       : outcome.status == ServeStatus::Degraded ? Tally::Degraded
       : outcome.shed_reason == ShedReason::Admission ? Tally::ShedAdmission
       : outcome.shed_reason == ShedReason::QueueFull ? Tally::ShedQueueFull
       : outcome.shed_reason == ShedReason::Expired   ? Tally::ShedExpired
                                                      : Tally::ShedShutdown);
  if (outcome.answered() && !outcome.deadline_met)
    bump(Tally::DeadlineMisses);
  return outcome;
}

// ---------------------------------------------------------------------------
// Hint store (warm starts + degradation source)
// ---------------------------------------------------------------------------

bool PartitionServer::shares_model(const PartitionPolicy& policy,
                                   const ModelKey& key) {
  return key.cacheable && !policy.observer &&
         policy.algorithm != kAlgorithmBounded;
}

bool PartitionServer::fits(const HeldModel& held, const SpeedList& speeds,
                           std::uint64_t check) {
  if (!held.list || held.check != check || held.list->size() != speeds.size())
    return false;
  for (std::size_t i = 0; i < speeds.size(); ++i)
    if (speeds[i] != held.list->base(i)) return false;
  return true;
}

bool PartitionServer::pick_model(const SlopeHint& stored,
                                 const SpeedList& speeds, std::uint64_t check,
                                 HeldModel& held) {
  if (!fits(held, speeds, check))
    held = fits(stored.model, speeds, check) ? stored.model : HeldModel{};
  return !held.list && stored.waiting > 0;
}

void PartitionServer::count_held(std::int64_t delta) noexcept {
  models_held_.fetch_add(delta, std::memory_order_relaxed);
  metrics_.models_held.add(delta);
}

std::shared_ptr<const CompiledSpeedList> PartitionServer::model_for(
    const SpeedList& speeds, const ModelKey& key, HeldModel held,
    bool wanted) {
  if (held.list) {
    metrics_.models_reused.add(1);
    return std::move(held.list);
  }
  if (!wanted) return nullptr;
  held = {std::make_shared<const CompiledSpeedList>(
              CompiledSpeedList::compile(speeds)),
          key.check};
  std::shared_ptr<const CompiledSpeedList> list = held.list;
  // The entry keeps it only while requests of the fleet still wait. A held
  // model that did not fit (other objects of equal content) is replaced,
  // and freed here, outside the shard lock, if nothing else uses it.
  hints_.find(key.fingerprint, [&](SlopeHint& stored) {
    if (stored.waiting == 0) return false;
    if (!stored.model.list) count_held(1);
    std::swap(stored.model, held);
    return true;
  });
  return list;
}

void PartitionServer::join_queue(QueuedJob& job) {
  if (!warm_start_) return;  // no hint store entries, nothing to share
  if (!job.arrival.key) job.arrival.key = model_key(job.request.speeds);
  if (!shares_model(job.request.policy, *job.arrival.key)) return;
  job.arrival.waiting =
      hints_.find(job.arrival.key->fingerprint, [](SlopeHint& stored) {
        ++stored.waiting;
        return true;
      });
}

void PartitionServer::leave_queue(QueuedJob& job) {
  if (!job.arrival.waiting) return;
  job.arrival.waiting = false;
  hints_.find(job.arrival.key->fingerprint, [&](SlopeHint& stored) {
    // An entry evicted and stored again may count fewer requests than
    // leave it; it still releases its model with the last one.
    if (stored.waiting > 0) --stored.waiting;
    if (stored.waiting > 0) {
      job.arrival.model = stored.model;
    } else if (stored.model.list) {
      job.arrival.model = std::exchange(stored.model, {});
      count_held(-1);
    }
    return true;
  });
}

PartitionResult PartitionServer::partition_with_hint(
    const SpeedList& speeds, std::int64_t n, const PartitionPolicy& policy,
    const std::optional<ModelKey>& key, HeldModel held) {
  if (!warm_start_)
    return partition(CompiledSpeedList::compile(speeds), n, policy);
  PartitionPolicy hinted = policy;
  const auto take_hint = [&](const SlopeHint& stored) {
    if (!policy.hint) hinted.hint = stored.hint;  // a caller's own hint
    return true;                                  // is honoured untouched
  };
  // With the key known before compiling, one look at the fleet's entry
  // yields the hint and any held model; otherwise compile, then look.
  std::shared_ptr<const CompiledSpeedList> shared;
  const bool share = key && shares_model(policy, *key);
  if (share) {
    bool wanted = false;
    hints_.find(key->fingerprint, [&](const SlopeHint& stored) {
      wanted = pick_model(stored, speeds, key->check, held);
      return take_hint(stored);
    });
    shared = model_for(speeds, *key, std::move(held), wanted);
  }
  std::optional<CompiledSpeedList> own;
  const CompiledSpeedList& compiled =
      shared ? *shared : own.emplace(CompiledSpeedList::compile(speeds));
  const std::uint64_t fingerprint = compiled.fingerprint();
  if (!share && !policy.hint) hints_.find(fingerprint, take_hint);
  PartitionResult result = partition(compiled, n, hinted);
  // Results whose final_slope does not describe the full problem leave the
  // store alone. The bounded algorithm reports the slope of its last
  // residual round — a sub-problem over the unclamped processors — and its
  // clamped distribution is the wrong degradation source for unbounded
  // requests of the same models.
  if (n <= 0 || result.stats.algorithm == kAlgorithmBounded) return result;
  const auto next = next_hint(result, n, nullptr, fingerprint);
  if (!next) return result;
  const auto evicted = hints_.put(
      fingerprint, SlopeHint{*next, result.distribution.counts},
      [&](SlopeHint& stored, SlopeHint& fresh) {
        // Chained from the stored hint, a warm hit keeps its cold baseline.
        stored.hint = *next_hint(result, n, &stored.hint, fingerprint);
        stored.counts = std::move(fresh.counts);
      });
  if (evicted) {
    bump(Tally::HintEvictions);
    if (evicted->second.model.list) count_held(-1);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

PartitionResult PartitionServer::serve(const SpeedList& speeds, std::int64_t n,
                                       const PartitionPolicy& policy) {
  return serve(speeds, n, policy, std::nullopt, {});
}

PartitionServer::ModelKey PartitionServer::model_key(const SpeedList& speeds) {
  bool generic = false;
  std::uint64_t check = 0;
  const std::uint64_t fingerprint =
      CompiledSpeedList::fingerprint_of(speeds, &generic, &check);
  return ModelKey{fingerprint, check, !generic};
}

PartitionResult PartitionServer::serve(const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy,
                                       std::optional<ModelKey> key,
                                       HeldModel held) {
  obs::TimerSpan span(metrics_.serve_latency);
  if (policy.observer) {
    // The observer is a side effect the caller expects on every call; a
    // cached answer would silently swallow the step trace, and a hint would
    // change the trace's bracket shape — run cold, leave hints alone.
    bump(Tally::Uncacheable);
    return partition(speeds, n, policy);
  }
  // Key via the allocation-free fingerprint (unless the caller already
  // computed it): a hit must not pay for a compilation it will never use.
  if (cache_.capacity() != 0 && !key) key = model_key(speeds);
  if (cache_.capacity() == 0 || !key->cacheable) {
    // Caching disabled, or a Generic entry whose address-based fingerprint
    // a later model may reuse: still count the request (as uncacheable) so
    // the hit-rate denominator hits + misses + uncacheable matches the
    // request count. The slope hints are independent of result caching and
    // stay live.
    bump(Tally::Uncacheable);
    return partition_with_hint(speeds, n, policy, key, std::move(held));
  }
  const std::string cache_key =
      result_key(key->fingerprint, key->check, n, policy);
  PartitionResult result;
  if (cache_.lookup(cache_key, result)) {
    metrics_.hits.add(1);
    return result;
  }
  metrics_.misses.add(1);
  // A near-miss (fingerprint seen before under a different n) warm-starts
  // from the remembered slope.
  result = partition_with_hint(speeds, n, policy, key, std::move(held));
  if (cache_.insert(cache_key, result)) metrics_.evictions.add(1);
  return result;
}

std::optional<ServeResult> PartitionServer::arrive(const BatchRequest& request,
                                                   bool probe_cache,
                                                   Arrival& arrival) {
  arrival.submitted = Clock::now();
  arrival.deadline =
      request.slo.has_deadline()
          ? arrival.submitted +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(request.slo.deadline_s))
          : Clock::time_point::max();
  bump(Tally::Offered);
  // A cached answer is microseconds: it beats any deadline and any queue.
  if (!probe_cache || cache_.capacity() == 0 || request.policy.observer)
    return std::nullopt;
  arrival.key = model_key(request.speeds);
  PartitionResult cached;
  if (!arrival.key->cacheable ||
      !cache_.peek(result_key(arrival.key->fingerprint, arrival.key->check,
                              request.n, request.policy),
                   cached))
    return std::nullopt;
  metrics_.hits.add(1);
  ServeResult outcome;
  outcome.result = std::move(cached);
  return account(std::move(outcome), arrival);
}

ServeResult PartitionServer::solve_admitted(const BatchRequest& request,
                                            const Arrival& arrival) {
  const Clock::time_point start = Clock::now();
  ServeResult outcome;
  try {
    outcome.result = serve(request.speeds, request.n, request.policy,
                           arrival.key, arrival.model);
  } catch (...) {
    // Engine rejections (unknown algorithm id, invalid policy) are caller
    // errors, not load: count the request admitted before the error
    // propagates, so offered == admitted + degraded + shed survives them.
    bump(Tally::Admitted);
    throw;
  }
  estimator_.record(request.slo.priority,
                    seconds_between(start, Clock::now()));
  return account(std::move(outcome), arrival);
}

ServeResult PartitionServer::serve_slo(const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy,
                                       Slo slo) {
  const BatchRequest request{speeds, n, policy, slo};
  Arrival arrival;
  // Only deadline calls probe: a no-deadline call goes through serve()'s
  // counted lookup and its serve-latency sample, hit or miss.
  if (std::optional<ServeResult> hit =
          arrive(request, slo.has_deadline(), arrival))
    return *std::move(hit);
  // No queue is involved: admission consults the service estimate only.
  if (slo.has_deadline() &&
      estimator_.service_estimate(slo.priority) * kAdmissionSlack >
          slo.deadline_s)
    return resolve_shed(request, ShedReason::Admission, arrival);
  return solve_admitted(request, arrival);
}

std::size_t PartitionServer::jobs_ahead_locked(Priority priority) const {
  // Everything at its class or above (pessimistic within the class — it
  // joins at the back of it).
  std::size_t ahead = 0;
  for (std::size_t cls = static_cast<std::size_t>(priority);
       cls < kPriorityClasses; ++cls)
    ahead += queued_per_class_[cls];
  return ahead;
}

std::future<ServeResult> PartitionServer::submit(BatchRequest request) {
  QueuedJob job;
  job.request = std::move(request);
  std::future<ServeResult> future = job.promise.get_future();
  if (std::optional<ServeResult> hit =
          arrive(job.request, /*probe_cache=*/true, job.arrival)) {
    job.promise.set_value(*std::move(hit));
    return future;
  }
  const Priority priority = job.request.slo.priority;
  join_queue(job);

  ShedReason reject = ShedReason::None;  // None = enqueued
  std::optional<QueuedJob> victim;
  double wait_estimate = 0.0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      reject = ShedReason::Shutdown;
    } else {
      wait_estimate = estimator_.queue_delay(
          priority, jobs_ahead_locked(priority), threads_);
      const double predicted =
          (wait_estimate + estimator_.service_estimate(priority)) *
          kAdmissionSlack;
      if (job.request.slo.has_deadline() &&
          predicted > job.request.slo.deadline_s) {
        reject = ShedReason::Admission;
      } else {
        const JobKey key{-static_cast<int>(priority), job.arrival.deadline,
                         next_seq_++};
        if (max_queue_depth_ != 0 && queue_.size() >= max_queue_depth_) {
          const auto worst = std::prev(queue_.end());
          if (key < worst->first) {
            // The incoming request outranks the queue's worst; displace it.
            auto node = queue_.extract(worst);
            victim = std::move(node.mapped());
            --queued_per_class_[static_cast<std::size_t>(
                victim->request.slo.priority)];
            queue_.emplace(key, std::move(job));
            ++queued_per_class_[static_cast<std::size_t>(priority)];
          } else {
            reject = ShedReason::QueueFull;  // incoming is the worst
          }
        } else {
          queue_.emplace(key, std::move(job));
          ++queued_per_class_[static_cast<std::size_t>(priority)];
        }
      }
    }
  }
  metrics_.slo_queue_delay_us.set(
      static_cast<std::int64_t>(wait_estimate * 1e6));

  if (reject != ShedReason::None) {
    degrade_or_shed(std::move(job), reject);
  } else if (victim) {
    // Net queue depth unchanged (one in, one out); the displaced job is
    // degraded or shed outside the lock.
    queue_cv_.notify_one();
    degrade_or_shed(std::move(*victim), ShedReason::QueueFull);
  } else {
    metrics_.queue_depth.add(1);
    queue_cv_.notify_one();
  }
  return future;
}

std::vector<ServeResult> PartitionServer::run_batch(
    std::vector<BatchRequest> requests) {
  std::vector<std::future<ServeResult>> futures;
  futures.reserve(requests.size());
  for (BatchRequest& req : requests) futures.push_back(submit(std::move(req)));
  std::vector<ServeResult> results;
  results.reserve(futures.size());
  // Drain every future before letting any exception unwind: the requests
  // borrow their SpeedFunction objects, and rethrowing while later tasks
  // are still running would free models a worker is reading. Waiting on
  // every future first guarantees the pool is done with the whole batch.
  // Result i answers request i; shed/degraded entries are marked in place.
  std::exception_ptr first_error;
  for (std::future<ServeResult>& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.emplace_back();  // placeholder keeps the 1:1 index mapping
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

bool PartitionServer::drain(std::chrono::nanoseconds timeout) {
  const Clock::time_point deadline = Clock::now() + timeout;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (idle_cv_.wait_until(lock, deadline, [this] {
          return queue_.empty() && inflight_ == 0;
        }))
      return true;
  }
  // Timed out: shed (or degrade) what is still queued, then wait for the
  // in-flight solves — workers never abandon a running request.
  std::vector<QueuedJob> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers = steal_queue_locked();
  }
  for (QueuedJob& job : leftovers)
    degrade_or_shed(std::move(job), ShedReason::Shutdown);
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && inflight_ == 0; });
  }
  return leftovers.empty();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

CacheStats PartitionServer::cache_stats() const {
  CacheStats s = cache_.stats();
  s.uncacheable = tally(Tally::Uncacheable);
  s.hint_entries = hints_.size();
  s.hint_evictions = tally(Tally::HintEvictions);
  s.models_held = static_cast<std::size_t>(
      models_held_.load(std::memory_order_relaxed));
  return s;
}

SloStats PartitionServer::slo_stats() const {
  SloStats s;
  s.offered = tally(Tally::Offered);
  s.admitted = tally(Tally::Admitted);
  s.degraded = tally(Tally::Degraded);
  s.shed_admission = tally(Tally::ShedAdmission);
  s.shed_queue_full = tally(Tally::ShedQueueFull);
  s.shed_expired = tally(Tally::ShedExpired);
  s.shed_shutdown = tally(Tally::ShedShutdown);
  s.shed = s.shed_admission + s.shed_queue_full + s.shed_expired +
           s.shed_shutdown;
  s.deadline_misses = tally(Tally::DeadlineMisses);
  s.queue_delay_estimate_s = predicted_delay(Priority::Normal);
  return s;
}

double PartitionServer::predicted_delay(Priority priority) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return estimator_.queue_delay(priority, jobs_ahead_locked(priority),
                                threads_) +
         estimator_.service_estimate(priority);
}

std::vector<ServeResult> partition_batch(std::vector<BatchRequest> requests,
                                         const ServerOptions& options) {
  PartitionServer server(options);
  return server.run_batch(std::move(requests));
}

}  // namespace fpm::core
