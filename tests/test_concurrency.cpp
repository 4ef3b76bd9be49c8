// Concurrency tests for the batch-partitioning engine (core/server.hpp):
// many threads hammering one PartitionServer must produce results
// bit-identical to direct core::partition() calls, the sharded LRU cache
// must stay consistent under contention, observer-carrying policies must
// bypass the cache, and the Rebalancer must behave identically with and
// without a shared server. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "balance/rebalancer.hpp"
#include "core/fpm.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm {
namespace {

using namespace std::chrono_literals;

TEST(PartitionServer, ServesBitIdenticalResultsFromManyThreads) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  // 8 distinct problem sizes: every thread cycles through all of them, so
  // the cache sees a racy mix of cold misses and hot hits on every key.
  std::vector<std::int64_t> ns;
  for (int i = 0; i < 8; ++i) ns.push_back(10000 + 7919LL * i);
  std::vector<core::Distribution> expected;
  for (const std::int64_t n : ns)
    expected.push_back(core::partition(list, n).distribution);

  core::PartitionServer server;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t j = static_cast<std::size_t>(t + i) % ns.size();
        const core::PartitionResult r = server.serve(list, ns[j], {});
        if (r.distribution.counts != expected[j].counts) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const core::CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPerThread);
  // Concurrent first touches of one key may each miss, but never fewer
  // misses than distinct keys and never an unreasonable number more.
  EXPECT_GE(stats.misses, static_cast<std::int64_t>(ns.size()));
  EXPECT_LE(stats.misses, static_cast<std::int64_t>(ns.size()) * kThreads);
  EXPECT_EQ(stats.uncacheable, 0);
  EXPECT_LE(stats.entries, core::ServerOptions{}.cache_capacity);
}

TEST(PartitionServer, RunBatchPreservesRequestOrder) {
  const test::Ensemble e = test::power_ensemble(5);
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 4;
  core::PartitionServer server(opts);
  std::vector<core::BatchRequest> batch;
  for (int i = 0; i < 40; ++i)
    batch.push_back({list, 5000 + 991LL * i, {}});
  const std::vector<core::ServeResult> results =
      server.run_batch(std::move(batch));
  ASSERT_EQ(results.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const core::PartitionResult direct = core::partition(list, 5000 + 991LL * i);
    const core::ServeResult& got = results[static_cast<std::size_t>(i)];
    EXPECT_EQ(got.status, core::ServeStatus::Ok) << "request " << i;
    EXPECT_EQ(got.result.distribution.counts, direct.distribution.counts)
        << "request " << i;
  }
}

TEST(PartitionServer, PartitionBatchConvenienceMatchesDirectCalls) {
  const test::Ensemble e = test::exponential_ensemble(3);
  const core::SpeedList list = e.list();
  std::vector<core::BatchRequest> batch;
  for (int i = 0; i < 12; ++i) batch.push_back({list, 1000 + 313LL * i, {}});
  const auto results = core::partition_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(results[i].result.distribution.counts,
              core::partition(list, batch[i].n).distribution.counts);
}

TEST(PartitionCache, LruEvictsLeastRecentlyUsed) {
  const test::Ensemble e = test::constant_ensemble(3);
  const core::SpeedList list = e.list();
  core::PartitionCache cache(4, 1);
  const auto key = [&list](std::int64_t n) {
    return core::PartitionCache::make_key(list, n, {});
  };
  core::PartitionResult out;
  // The serving pattern: a counted lookup, then the insert on a miss.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(cache.lookup(key(1000 + i), out));
    (void)cache.insert(key(1000 + i), core::partition(list, 1000 + i));
  }
  core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 8);
  EXPECT_EQ(stats.entries, 4);
  EXPECT_EQ(stats.evictions, 4);
  // The four most recent keys are hits; the four oldest were evicted.
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(cache.lookup(key(1000 + i), out));
    EXPECT_EQ(out.distribution.total(), 1000 + i);
  }
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 4);
  EXPECT_FALSE(cache.lookup(key(1000), out));  // evicted earlier: a miss
  EXPECT_EQ(cache.stats().misses, 9);
  // Recency, not insertion order, picks the victim: touch the oldest key,
  // insert one more, and the second-oldest goes instead.
  EXPECT_TRUE(cache.lookup(key(1004), out));
  EXPECT_TRUE(cache.insert(key(1008), core::partition(list, 1008)));
  EXPECT_TRUE(cache.peek(key(1004), out));
  EXPECT_FALSE(cache.peek(key(1005), out));
}

TEST(PartitionServer, ObserverPoliciesBypassTheCache) {
  const test::Ensemble e = test::power_ensemble(4);
  const core::SpeedList list = e.list();
  core::PartitionServer server;
  std::atomic<int> steps{0};
  core::PartitionPolicy traced;
  traced.observer = [&steps](const core::SearchStep&) { ++steps; };
  const core::PartitionResult first = server.serve(list, 100000, traced);
  const int steps_per_run = steps.load();
  EXPECT_GT(steps_per_run, 0);
  for (int i = 0; i < 4; ++i) {
    const core::PartitionResult again = server.serve(list, 100000, traced);
    EXPECT_EQ(again.distribution.counts, first.distribution.counts);
  }
  // The observer fired on every call — nothing was answered from cache.
  EXPECT_EQ(steps.load(), 5 * steps_per_run);
  const core::CacheStats stats = server.cache_stats();
  EXPECT_EQ(stats.uncacheable, 5);
  EXPECT_EQ(stats.hits + stats.misses, 0);
}

TEST(PartitionServer, CacheKeyDistinguishesModelsAndPolicies) {
  const test::Ensemble a = test::power_ensemble(4);
  const test::Ensemble b = test::power_ensemble(4);  // structurally equal
  core::PartitionServer server;
  (void)server.serve(a.list(), 50000, {});
  // Same models (by content), same n, same policy: a hit.
  (void)server.serve(b.list(), 50000, {});
  EXPECT_EQ(server.cache_stats().hits, 1);
  // Different algorithm: a distinct key.
  core::PartitionPolicy basic;
  basic.algorithm = core::kAlgorithmBasic;
  (void)server.serve(a.list(), 50000, basic);
  EXPECT_EQ(server.cache_stats().misses, 2);
  // Different bounds: a distinct key even though format_policy omits them.
  core::PartitionPolicy bounded;
  bounded.algorithm = core::kAlgorithmBounded;
  bounded.bounds = {20000, 20000, 20000, 20000};
  (void)server.serve(a.list(), 50000, bounded);
  core::PartitionPolicy bounded2 = bounded;
  bounded2.bounds.back() = 30000;
  (void)server.serve(a.list(), 50000, bounded2);
  EXPECT_EQ(server.cache_stats().misses, 4);
}

TEST(PartitionServer, ClearCacheResetsEntries) {
  const test::Ensemble e = test::constant_ensemble(2);
  core::PartitionServer server;
  (void)server.serve(e.list(), 1234, {});
  EXPECT_EQ(server.cache_stats().entries, 1);
  server.clear_cache();
  EXPECT_EQ(server.cache_stats().entries, 0);
  (void)server.serve(e.list(), 1234, {});
  EXPECT_EQ(server.cache_stats().misses, 2);
}

TEST(PartitionServer, RunBatchDrainsAllTasksBeforeRethrowing) {
  // Regression test: run_batch used to rethrow the first failed future
  // while later requests of the batch could still be running on workers —
  // and those requests borrow their SpeedFunction objects, so unwinding
  // the caller freed models a worker was still reading. The batch (and
  // its ensemble) is scoped so that a premature rethrow becomes a
  // use-after-free, which ASan/TSan in CI turn into a hard failure.
  core::ServerOptions opts;
  opts.threads = 4;
  core::PartitionServer server(opts);
  {
    const test::Ensemble e = test::mixed_ensemble();
    std::vector<core::BatchRequest> batch;
    for (int i = 0; i < 64; ++i) {
      core::PartitionPolicy policy;
      if (i == 3) policy.algorithm = "no-such-algorithm";  // fails fast
      batch.push_back({e.list(), 50000 + 101LL * i, policy});
    }
    EXPECT_THROW(server.run_batch(std::move(batch)), std::invalid_argument);
  }  // ensemble destroyed here: every worker must already be done with it
  // The server stays usable after a failed batch.
  const test::Ensemble e2 = test::constant_ensemble(3);
  const auto results = server.run_batch({{e2.list(), 999, {}}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].result.distribution.total(), 999);
}

TEST(PartitionServer, DisabledCacheCountsEveryRequestAsUncacheable) {
  // With cache_capacity = 0 every serve() must still be counted, so the
  // hit-rate denominator hits + misses + uncacheable equals the request
  // count instead of silently shrinking.
  core::ServerOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;
  core::PartitionServer server(opts);
  const test::Ensemble e = test::mixed_ensemble();
  constexpr int kRequests = 10;
  for (int i = 0; i < kRequests; ++i)
    (void)server.serve(e.list(), 10000 + i, {});
  const core::CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(cs.misses, 0);
  EXPECT_EQ(cs.uncacheable, kRequests);
  EXPECT_EQ(cs.entries, 0u);
  EXPECT_EQ(cs.hits + cs.misses + cs.uncacheable, kRequests);
}

TEST(PartitionServer, GenericModelsAtAReusedAddressAreNeverServedStale) {
  // A user-defined SpeedFunction compiles to a Generic entry, fingerprinted
  // by its address. Free it and construct a different model in the same
  // storage: a cache keyed on that address would hand back the first
  // model's answer. Such lists bypass the result cache on every entry
  // point (and count as uncacheable); answers equal direct partition().
  struct UserSpeed final : core::SpeedFunction {
    explicit UserSpeed(double peak_speed) : peak(peak_speed) {}
    double speed(double x) const override { return peak / (1.0 + x / 4e5); }
    double max_size() const override { return 1e9; }
    double peak;
  };
  constexpr std::int64_t kN = 500'009;
  const test::Ensemble others = test::linear_ensemble(3);
  alignas(UserSpeed) unsigned char storage[sizeof(UserSpeed)];
  core::PartitionServer server({.threads = 1});

  const UserSpeed* first = new (storage) UserSpeed(100.0);
  core::SpeedList speeds = others.list();
  speeds.push_back(first);
  const core::PartitionResult served_first = server.serve(speeds, kN);
  EXPECT_EQ(served_first.distribution.counts,
            core::partition(speeds, kN).distribution.counts);
  first->~UserSpeed();

  const UserSpeed* second = new (storage) UserSpeed(300.0);
  ASSERT_EQ(static_cast<const void*>(second),
            static_cast<const void*>(first));
  speeds.back() = second;
  const core::PartitionResult direct = core::partition(speeds, kN);
  ASSERT_NE(direct.distribution.counts, served_first.distribution.counts);
  EXPECT_EQ(server.serve(speeds, kN).distribution.counts,
            direct.distribution.counts);
  EXPECT_EQ(server.submit({speeds, kN, {}, {}}).get().result.distribution
                .counts,
            direct.distribution.counts);
  core::Slo slo;
  slo.deadline_s = 10.0;
  EXPECT_EQ(server.serve_slo(speeds, kN, {}, slo).result.distribution.counts,
            direct.distribution.counts);
  second->~UserSpeed();

  const core::CacheStats cs = server.cache_stats();
  EXPECT_EQ(cs.hits, 0);
  EXPECT_EQ(cs.misses, 0);
  EXPECT_EQ(cs.uncacheable, 4);
  EXPECT_EQ(cs.entries, 0u);
}

TEST(PartitionServer, ServeReportsIntoTheMetricsRegistry) {
  obs::metrics().reset();
  const test::Ensemble e = test::mixed_ensemble();
  core::PartitionServer server({.threads = 2});
  constexpr int kRequests = 12;
  core::StepTrace trace;
  for (int i = 0; i < kRequests; ++i) {
    core::PartitionPolicy policy;
    if (i % 4 == 3) policy.observer = trace.observer();  // uncacheable
    (void)server.serve(e.list(), 20000 + (i % 3), policy);
  }
  obs::MetricsRegistry& reg = obs::metrics();
  const std::int64_t hits =
      reg.counter(obs::names::kServerCacheHits).value();
  const std::int64_t misses =
      reg.counter(obs::names::kServerCacheMisses).value();
  const std::int64_t uncacheable =
      reg.counter(obs::names::kServerCacheUncacheable).value();
  EXPECT_EQ(hits + misses + uncacheable, kRequests);
  EXPECT_EQ(uncacheable, kRequests / 4);
  EXPECT_EQ(misses, 3);  // three distinct cacheable keys
  const auto latency =
      reg.histogram(obs::names::kServerServeLatency).snapshot();
  EXPECT_EQ(latency.count, kRequests);
  // The engine rollups fired for every non-hit request.
  std::int64_t invocations = 0;
  for (const auto& [name, value] : reg.snapshot().counters)
    if (name.rfind(obs::names::kPartitionInvocationsPrefix, 0) == 0)
      invocations += value;
  EXPECT_EQ(invocations, misses + uncacheable);
  EXPECT_GT(reg.counter(obs::names::kPartitionIntersectSolves).value(), 0);
}

TEST(PartitionServer, CacheHitIsBitIdenticalToPrecompiledMiss) {
  // The miss path now computes under a PrecompiledGuard (the server's
  // once-per-request compilation); hits and direct partition() calls must
  // still agree bit for bit.
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  const core::PartitionResult direct = core::partition(list, 123457);
  core::PartitionServer server;
  const core::PartitionResult miss = server.serve(list, 123457);
  const core::PartitionResult hit = server.serve(list, 123457);
  EXPECT_EQ(miss.distribution.counts, direct.distribution.counts);
  EXPECT_EQ(hit.distribution.counts, direct.distribution.counts);
  EXPECT_EQ(hit.stats.speed_evals, direct.stats.speed_evals);
  EXPECT_EQ(hit.stats.intersect_solves, direct.stats.intersect_solves);
}

TEST(PartitionServer, DestructorShedsQueuedRequestsWithoutBreakingPromises) {
  // Graceful shutdown: destroying a server with a deep queue must fulfil
  // every future — queued requests come back ServeStatus::Shed
  // (ShedReason::Shutdown), never a broken_promise. Run under TSan in CI.
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  std::vector<std::future<core::ServeResult>> futures;
  {
    core::ServerOptions opts;
    opts.threads = 2;
    opts.cache_capacity = 0;  // every request solves: the queue stays deep
    core::PartitionServer server(opts);
    for (int i = 0; i < 64; ++i)
      futures.push_back(server.submit({list, 200000 + 1013LL * i, {}, {}}));
  }  // destructor: shed the queue, finish in-flight, join
  int answered = 0, shed = 0;
  for (auto& f : futures) {
    const core::ServeResult r = f.get();  // must never throw broken_promise
    if (r.status == core::ServeStatus::Shed) {
      EXPECT_EQ(r.shed_reason, core::ShedReason::Shutdown);
      ++shed;
    } else {
      EXPECT_EQ(r.status, core::ServeStatus::Ok);
      ++answered;
    }
  }
  EXPECT_EQ(answered + shed, 64);
  EXPECT_GT(shed, 0) << "2 workers cannot finish 64 solves before teardown";
}

TEST(PartitionServer, DrainRacesConcurrentSubmittersSafely) {
  // drain() while other threads keep submitting: every future must still
  // resolve, and the accounting invariant must hold. Run under TSan in CI.
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 2;
  opts.cache_capacity = 0;
  core::PartitionServer server(opts);
  std::atomic<int> resolved{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        auto f = server.submit({list, 100000 + 419LL * (t * 16 + i), {}, {}});
        (void)f.get();
        ++resolved;
      }
    });
  }
  for (int i = 0; i < 8; ++i) (void)server.drain(1ms);
  for (auto& t : submitters) t.join();
  EXPECT_EQ(resolved.load(), 64);
  EXPECT_TRUE(server.drain(30s));
  const core::SloStats s = server.slo_stats();
  EXPECT_EQ(s.offered, 64);
  EXPECT_EQ(s.offered, s.admitted + s.degraded + s.shed);
}

TEST(Rebalancer, SharedServerIsBehaviourallyInvisible) {
  balance::OnlineModelOptions model;
  model.min_size = 10.0;
  model.max_size = 1e6;
  model.buckets = 16;
  balance::RebalancerOptions plain;
  plain.warmup_iterations = 2;
  core::PartitionServer server;
  balance::RebalancerOptions shared = plain;
  shared.server = &server;

  balance::Rebalancer rb_plain(4, 100000, model, plain);
  balance::Rebalancer rb_shared(4, 100000, model, shared);
  const std::vector<double> times{8.0, 2.0, 1.0, 1.5};
  for (int i = 0; i < 12; ++i) {
    const bool a = rb_plain.step(times);
    const bool b = rb_shared.step(times);
    EXPECT_EQ(a, b) << "iteration " << i;
    EXPECT_EQ(rb_plain.distribution().counts, rb_shared.distribution().counts)
        << "iteration " << i;
  }
  EXPECT_EQ(rb_plain.repartitions(), rb_shared.repartitions());
  EXPECT_GT(rb_shared.repartitions(), 0);
  // The shared instance's repartitions (and rejected candidates) actually
  // went through the server.
  const core::CacheStats stats = server.cache_stats();
  EXPECT_GE(stats.hits + stats.misses,
            static_cast<std::int64_t>(rb_shared.repartitions()));
}

}  // namespace
}  // namespace fpm
