#include "core/server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
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

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out.push_back(kDigits[(v >> shift) & 0xf]);
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
    : capacity_(capacity), shards_(std::max<std::size_t>(1, shards)) {
  // Ceiling division so the shard sum never undercuts the requested total;
  // a zero capacity keeps every shard empty (lookups all miss).
  per_shard_capacity_ =
      capacity_ == 0 ? 0 : (capacity_ + shards_.size() - 1) / shards_.size();
}

std::string PartitionCache::make_key(const SpeedList& speeds, std::int64_t n,
                                     const PartitionPolicy& policy) {
  return make_key(CompiledSpeedList::fingerprint_of(speeds), n, policy);
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

PartitionCache::Shard& PartitionCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool PartitionCache::find(const std::string& key, PartitionResult& out,
                          bool count_miss) {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(key);
  if (it == sh.index.end()) {
    if (count_miss) ++sh.misses;
    return false;
  }
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // move to front (MRU)
  ++sh.hits;
  out = it->second->second;
  return true;
}

bool PartitionCache::lookup(const std::string& key, PartitionResult& out) {
  return find(key, out, /*count_miss=*/true);
}

bool PartitionCache::peek(const std::string& key, PartitionResult& out) {
  return find(key, out, /*count_miss=*/false);
}

bool PartitionCache::insert(const std::string& key,
                            const PartitionResult& value) {
  if (per_shard_capacity_ == 0) return false;
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(key);
  if (it != sh.index.end()) {
    // A concurrent miss on the same key already computed and stored the
    // (identical) result; refresh recency and keep the incumbent.
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return false;
  }
  sh.lru.emplace_front(key, value);
  sh.index.emplace(key, sh.lru.begin());
  if (sh.lru.size() > per_shard_capacity_) {
    sh.index.erase(sh.lru.back().first);
    sh.lru.pop_back();
    ++sh.evictions;
    return true;
  }
  return false;
}

void PartitionCache::clear() {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    sh.lru.clear();
    sh.index.clear();
  }
}

CacheStats PartitionCache::stats() const {
  CacheStats s;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    s.hits += sh.hits;
    s.misses += sh.misses;
    s.evictions += sh.evictions;
    s.entries += sh.lru.size();
  }
  return s;
}

// ---------------------------------------------------------------------------
// PartitionServer: construction / teardown
// ---------------------------------------------------------------------------

PartitionServer::PartitionServer(ServerOptions options)
    : threads_(options.threads != 0
                   ? options.threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      cache_(options.cache_capacity, options.cache_shards),
      metrics_{
          obs::metrics().histogram(obs::names::kServerServeLatency),
          obs::metrics().gauge(obs::names::kServerQueueDepth),
          obs::metrics().counter(obs::names::kServerCacheHits),
          obs::metrics().counter(obs::names::kServerCacheMisses),
          obs::metrics().counter(obs::names::kServerCacheEvictions),
          obs::metrics().counter(obs::names::kServerCacheUncacheable),
          obs::metrics().counter(obs::names::kServerHintsEvicted),
          obs::metrics().counter(obs::names::kServerSloOffered),
          obs::metrics().counter(obs::names::kServerSloAdmitted),
          obs::metrics().counter(obs::names::kServerSloDegraded),
          obs::metrics().counter(obs::names::kServerSloShedAdmission),
          obs::metrics().counter(obs::names::kServerSloShedQueueFull),
          obs::metrics().counter(obs::names::kServerSloShedExpired),
          obs::metrics().counter(obs::names::kServerSloShedShutdown),
          obs::metrics().counter(obs::names::kServerSloDeadlineMisses),
          obs::metrics().gauge(obs::names::kServerSloQueueDelayMicros)},
      warm_start_(options.warm_start),
      hint_shard_capacity_(std::max<std::size_t>(
          1, (std::max<std::size_t>(1, options.hint_capacity) +
              hint_shards_.size() - 1) /
                 hint_shards_.size())),
      max_queue_depth_(options.max_queue_depth),
      estimator_(kEwmaAlpha) {
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
    ServeResult outcome;
    outcome.status = ServeStatus::Shed;
    outcome.shed_reason = ShedReason::Shutdown;
    account(outcome, job.submitted, job.deadline, job.request.slo.priority);
    job.promise.set_value(std::move(outcome));
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
  const Priority priority = job.request.slo.priority;
  const Clock::time_point start = Clock::now();
  if (start >= job.deadline) {
    // The deadline passed while the request waited in the queue; do not
    // spend a solve that is already late.
    degrade_or_shed(std::move(job), ShedReason::Expired);
    return;
  }
  ServeResult outcome;
  try {
    outcome.result = serve(job.request.speeds, job.request.n,
                           job.request.policy, job.key);
  } catch (...) {
    // Engine rejections (unknown algorithm id, invalid policy) are caller
    // errors, not load: the request was admitted and the error surfaces
    // through the future exactly as the synchronous API would throw it.
    slo_admitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.slo_admitted.add(1);
    job.promise.set_exception(std::current_exception());
    return;
  }
  estimator_.record(priority, seconds_between(start, Clock::now()));
  outcome.status = ServeStatus::Ok;
  account(outcome, job.submitted, job.deadline, priority);
  job.promise.set_value(std::move(outcome));
}

// ---------------------------------------------------------------------------
// Degradation and shedding
// ---------------------------------------------------------------------------

std::optional<ServeResult> PartitionServer::try_degrade(
    const BatchRequest& request, std::optional<ModelKey> key) {
  if (request.speeds.empty() || request.n < 1) return std::nullopt;
  // Observers expect a real search (their callbacks must fire per step);
  // bounded policies carry capacity constraints a rescaled distribution
  // would silently violate. Both fall through to a plain shed.
  if (request.policy.observer) return std::nullopt;
  if (request.policy.algorithm == kAlgorithmBounded) return std::nullopt;
  if (!key) key = model_key(request.speeds);
  const std::optional<SlopeHint> prev =
      lookup_degradation(key->fingerprint, request.speeds.size());
  if (!prev) return std::nullopt;
  std::optional<DegradedAnswer> answer =
      degraded_answer(request.speeds, request.n, prev->counts, prev->n);
  if (!answer) return std::nullopt;
  ServeResult outcome;
  outcome.status = ServeStatus::Degraded;
  outcome.result.distribution = std::move(answer->distribution);
  outcome.result.stats.algorithm = kAlgorithmDegraded;
  outcome.error_bound = answer->error_bound;
  return outcome;
}

ServeResult PartitionServer::resolve_shed(
    const BatchRequest& request, ShedReason reason,
    std::optional<ModelKey> key) {
  if (request.slo.allow_degraded) {
    if (std::optional<ServeResult> degraded = try_degrade(request, key)) {
      degraded->shed_reason = reason;  // what the approximation averted
      return *std::move(degraded);
    }
  }
  ServeResult outcome;
  outcome.status = ServeStatus::Shed;
  outcome.shed_reason = reason;
  return outcome;
}

void PartitionServer::degrade_or_shed(QueuedJob&& job, ShedReason reason) {
  ServeResult outcome = resolve_shed(job.request, reason, job.key);
  account(outcome, job.submitted, job.deadline, job.request.slo.priority);
  job.promise.set_value(std::move(outcome));
}

void PartitionServer::account(ServeResult& outcome,
                              Clock::time_point submitted,
                              Clock::time_point deadline, Priority priority) {
  (void)priority;
  const Clock::time_point now = Clock::now();
  outcome.latency_s = seconds_between(submitted, now);
  const bool had_deadline = deadline != Clock::time_point::max();
  outcome.deadline_met = !had_deadline || now <= deadline;
  switch (outcome.status) {
    case ServeStatus::Ok:
      slo_admitted_.fetch_add(1, std::memory_order_relaxed);
      metrics_.slo_admitted.add(1);
      break;
    case ServeStatus::Degraded:
      slo_degraded_.fetch_add(1, std::memory_order_relaxed);
      metrics_.slo_degraded.add(1);
      break;
    case ServeStatus::Shed:
      switch (outcome.shed_reason) {
        case ShedReason::Admission:
          slo_shed_admission_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_admission.add(1);
          break;
        case ShedReason::QueueFull:
          slo_shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_queue_full.add(1);
          break;
        case ShedReason::Expired:
          slo_shed_expired_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_expired.add(1);
          break;
        case ShedReason::Shutdown:
        case ShedReason::None:  // unreachable; bucket with shutdown
          slo_shed_shutdown_.fetch_add(1, std::memory_order_relaxed);
          metrics_.slo_shed_shutdown.add(1);
          break;
      }
      break;
  }
  if (outcome.answered() && !outcome.deadline_met) {
    slo_deadline_misses_.fetch_add(1, std::memory_order_relaxed);
    metrics_.slo_deadline_misses.add(1);
  }
}

// ---------------------------------------------------------------------------
// Hint store (warm starts + degradation source)
// ---------------------------------------------------------------------------

std::optional<PartitionHint> PartitionServer::lookup_hint(
    std::uint64_t fingerprint) {
  HintShard& sh = hint_shards_[fingerprint % hint_shards_.size()];
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(fingerprint);
  if (it == sh.index.end()) return std::nullopt;
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
  PartitionHint hint;
  hint.slope = it->second->second.slope;
  hint.n = it->second->second.n;
  hint.fingerprint = fingerprint;
  hint.baseline_iterations = it->second->second.baseline_iterations;
  return hint;
}

std::optional<PartitionServer::SlopeHint> PartitionServer::lookup_degradation(
    std::uint64_t fingerprint, std::size_t p) {
  HintShard& sh = hint_shards_[fingerprint % hint_shards_.size()];
  std::lock_guard<std::mutex> lock(sh.mu);
  const auto it = sh.index.find(fingerprint);
  if (it == sh.index.end()) return std::nullopt;
  const SlopeHint& hint = it->second->second;
  if (hint.counts.size() != p) return std::nullopt;
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
  return hint;
}

void PartitionServer::update_hint(std::uint64_t fingerprint, std::int64_t n,
                                  const PartitionResult& result) {
  if (n <= 0) return;
  if (!std::isfinite(result.stats.final_slope) ||
      result.stats.final_slope <= 0.0)
    return;
  // The bounded algorithm reports the slope of its last residual round — a
  // sub-problem over the unclamped processors, not the full list — and its
  // clamped distribution is the wrong degradation source for unbounded
  // requests of the same models.
  if (result.stats.algorithm == kAlgorithmBounded) return;
  HintShard& sh = hint_shards_[fingerprint % hint_shards_.size()];
  std::size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(fingerprint);
    if (it == sh.index.end()) {
      sh.lru.emplace_front(
          fingerprint,
          SlopeHint{result.stats.final_slope, n, result.stats.iterations,
                    result.distribution.counts});
      sh.index.emplace(fingerprint, sh.lru.begin());
      while (sh.lru.size() > hint_shard_capacity_) {
        sh.index.erase(sh.lru.back().first);
        sh.lru.pop_back();
        ++evicted;
      }
    } else {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      SlopeHint& hint = it->second->second;
      hint.slope = result.stats.final_slope;
      hint.n = n;
      hint.counts = result.distribution.counts;
      // A warm run's low iteration count is not a cold baseline; keep the
      // last cold figure so iterations_saved keeps measuring warm vs cold.
      if (result.stats.warmstart != WarmStart::Hit)
        hint.baseline_iterations = result.stats.iterations;
    }
  }
  if (evicted > 0) {
    hint_evictions_.fetch_add(static_cast<std::int64_t>(evicted),
                              std::memory_order_relaxed);
    metrics_.hint_evictions.add(static_cast<std::int64_t>(evicted));
  }
}

PartitionResult PartitionServer::partition_with_hint(
    const SpeedList& speeds, std::int64_t n, const PartitionPolicy& policy,
    std::uint64_t fingerprint) {
  if (!warm_start_) return partition(speeds, n, policy);
  PartitionResult result;
  if (policy.hint) {
    // The caller brought their own hint; honour it untouched.
    result = partition(speeds, n, policy);
  } else {
    PartitionPolicy hinted = policy;
    hinted.hint = lookup_hint(fingerprint);
    result = partition(speeds, n, hinted);
  }
  update_hint(fingerprint, n, result);
  return result;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

PartitionResult PartitionServer::serve(const SpeedList& speeds, std::int64_t n,
                                       const PartitionPolicy& policy) {
  return serve(speeds, n, policy, std::nullopt);
}

PartitionServer::ModelKey PartitionServer::model_key(const SpeedList& speeds) {
  bool generic = false;
  const std::uint64_t fingerprint =
      CompiledSpeedList::fingerprint_of(speeds, &generic);
  return ModelKey{fingerprint, !generic};
}

PartitionResult PartitionServer::serve(const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy,
                                       std::optional<ModelKey> key) {
  obs::TimerSpan span(metrics_.serve_latency);
  if (policy.observer) {
    // The observer is a side effect the caller expects on every call; a
    // cached answer would silently swallow the step trace, and a hint would
    // change the trace's bracket shape — run cold, leave hints alone.
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    metrics_.uncacheable.add(1);
    return partition(speeds, n, policy);
  }
  // Key via the allocation-free fingerprint (unless the caller already
  // computed it): a hit must not pay for a compilation it will never use.
  if (cache_.capacity() != 0 && !key) key = model_key(speeds);
  if (cache_.capacity() == 0 || !key->cacheable) {
    // Caching disabled, or a Generic entry whose address-based fingerprint
    // a later model may reuse: still count the request (as uncacheable) so
    // the hit-rate denominator hits + misses + uncacheable matches the
    // request count, and still compile once so the engine skips its own
    // pass. The slope hints are independent of result caching and stay
    // live.
    uncacheable_.fetch_add(1, std::memory_order_relaxed);
    metrics_.uncacheable.add(1);
    const CompiledSpeedList compiled = CompiledSpeedList::compile(speeds);
    PrecompiledGuard guard(speeds, compiled);
    return partition_with_hint(speeds, n, policy, compiled.fingerprint());
  }
  const std::string cache_key =
      PartitionCache::make_key(key->fingerprint, n, policy);
  PartitionResult result;
  if (cache_.lookup(cache_key, result)) {
    metrics_.hits.add(1);
    return result;
  }
  metrics_.misses.add(1);
  // Miss: compile once here and hand the model to the engine through the
  // thread-local guard, so SearchState does not compile a second time. A
  // near-miss (fingerprint seen before under a different n) warm-starts
  // from the remembered slope.
  const CompiledSpeedList compiled = CompiledSpeedList::compile(speeds);
  {
    PrecompiledGuard guard(speeds, compiled);
    result = partition_with_hint(speeds, n, policy, key->fingerprint);
  }
  if (cache_.insert(cache_key, result)) metrics_.evictions.add(1);
  return result;
}

ServeResult PartitionServer::serve_slo(const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy,
                                       Slo slo) {
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline =
      slo.has_deadline()
          ? submitted + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(slo.deadline_s))
          : Clock::time_point::max();
  slo_offered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.slo_offered.add(1);

  BatchRequest request{speeds, n, policy, slo};
  std::optional<ModelKey> key;
  if (slo.has_deadline()) {
    // A cache hit beats any deadline — probe before consulting the
    // estimate (peek: the miss will be re-counted by serve() if admitted).
    if (cache_.capacity() != 0 && !policy.observer) {
      key = model_key(speeds);
      PartitionResult cached;
      if (key->cacheable &&
          cache_.peek(PartitionCache::make_key(key->fingerprint, n, policy),
                      cached)) {
        metrics_.hits.add(1);
        ServeResult outcome;
        outcome.status = ServeStatus::Ok;
        outcome.result = std::move(cached);
        account(outcome, submitted, deadline, slo.priority);
        return outcome;
      }
    }
    const double predicted =
        estimator_.service_estimate(slo.priority) * kAdmissionSlack;
    if (predicted > slo.deadline_s) {
      ServeResult outcome = resolve_shed(request, ShedReason::Admission, key);
      account(outcome, submitted, deadline, slo.priority);
      return outcome;
    }
  }
  const Clock::time_point start = Clock::now();
  ServeResult outcome;
  try {
    outcome.result = serve(speeds, n, policy, key);
  } catch (...) {
    // Count the admitted request before the engine error propagates, so
    // offered == admitted + degraded + shed survives caller errors.
    slo_admitted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.slo_admitted.add(1);
    throw;
  }
  estimator_.record(slo.priority, seconds_between(start, Clock::now()));
  outcome.status = ServeStatus::Ok;
  account(outcome, submitted, deadline, slo.priority);
  return outcome;
}

std::future<ServeResult> PartitionServer::submit(BatchRequest request) {
  const Clock::time_point submitted = Clock::now();
  const Clock::time_point deadline =
      request.slo.has_deadline()
          ? submitted +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(request.slo.deadline_s))
          : Clock::time_point::max();
  slo_offered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.slo_offered.add(1);

  QueuedJob job;
  job.request = std::move(request);
  job.submitted = submitted;
  job.deadline = deadline;
  std::future<ServeResult> future = job.promise.get_future();
  const Priority priority = job.request.slo.priority;

  // Fast path: a cached answer is microseconds — serve it inline no matter
  // the queue state. peek() so the miss is not double-counted (the worker's
  // serve() will count it).
  if (cache_.capacity() != 0 && !job.request.policy.observer) {
    job.key = model_key(job.request.speeds);
    PartitionResult cached;
    if (job.key->cacheable &&
        cache_.peek(PartitionCache::make_key(job.key->fingerprint,
                                             job.request.n,
                                             job.request.policy),
                    cached)) {
      metrics_.hits.add(1);
      ServeResult outcome;
      outcome.status = ServeStatus::Ok;
      outcome.result = std::move(cached);
      account(outcome, submitted, deadline, priority);
      job.promise.set_value(std::move(outcome));
      return future;
    }
  }

  ShedReason reject = ShedReason::None;  // None = enqueued
  std::optional<QueuedJob> victim;
  double wait_estimate = 0.0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      reject = ShedReason::Shutdown;
    } else {
      // Jobs this one must wait behind: everything at its class or above
      // (pessimistic within the class — it joins at the back of it).
      std::size_t ahead = 0;
      for (std::size_t cls = static_cast<std::size_t>(priority);
           cls < kPriorityClasses; ++cls)
        ahead += queued_per_class_[cls];
      wait_estimate = estimator_.queue_delay(priority, ahead, threads_);
      const double predicted =
          (wait_estimate + estimator_.service_estimate(priority)) *
          kAdmissionSlack;
      if (job.request.slo.has_deadline() &&
          predicted > job.request.slo.deadline_s) {
        reject = ShedReason::Admission;
      } else {
        const JobKey key{-static_cast<int>(priority), deadline, next_seq_++};
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
  s.uncacheable = uncacheable_.load(std::memory_order_relaxed);
  for (const HintShard& sh : hint_shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    s.hint_entries += sh.lru.size();
  }
  s.hint_evictions = hint_evictions_.load(std::memory_order_relaxed);
  return s;
}

SloStats PartitionServer::slo_stats() const {
  SloStats s;
  s.offered = slo_offered_.load(std::memory_order_relaxed);
  s.admitted = slo_admitted_.load(std::memory_order_relaxed);
  s.degraded = slo_degraded_.load(std::memory_order_relaxed);
  s.shed_admission = slo_shed_admission_.load(std::memory_order_relaxed);
  s.shed_queue_full = slo_shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_expired = slo_shed_expired_.load(std::memory_order_relaxed);
  s.shed_shutdown = slo_shed_shutdown_.load(std::memory_order_relaxed);
  s.shed = s.shed_admission + s.shed_queue_full + s.shed_expired +
           s.shed_shutdown;
  s.deadline_misses = slo_deadline_misses_.load(std::memory_order_relaxed);
  s.queue_delay_estimate_s = predicted_delay(Priority::Normal);
  return s;
}

double PartitionServer::predicted_delay(Priority priority) const {
  std::size_t ahead = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (std::size_t cls = static_cast<std::size_t>(priority);
         cls < kPriorityClasses; ++cls)
      ahead += queued_per_class_[cls];
  }
  return estimator_.queue_delay(priority, ahead, threads_) +
         estimator_.service_estimate(priority);
}

std::vector<ServeResult> partition_batch(std::vector<BatchRequest> requests,
                                         const ServerOptions& options) {
  PartitionServer server(options);
  return server.run_batch(std::move(requests));
}

}  // namespace fpm::core
