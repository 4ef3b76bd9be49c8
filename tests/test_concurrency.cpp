// Concurrency tests for the batch-partitioning engine (core/server.hpp):
// many threads hammering one PartitionServer must produce results
// bit-identical to direct core::partition() calls, the sharded LRU cache
// must stay consistent under contention, observer-carrying policies must
// bypass the cache, and the Rebalancer must behave identically with and
// without a shared server. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "balance/rebalancer.hpp"
#include "core/fleetgen.hpp"
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

/// A result with every stats field set away from its default.
core::PartitionResult synthetic_result(std::vector<std::int64_t> counts,
                                       int salt) {
  core::PartitionResult r;
  r.distribution.counts = std::move(counts);
  core::PartitionStats& s = r.stats;
  s.iterations = 17 + salt;
  s.intersections = 1023 + salt;
  s.final_slope = std::nextafter(0.1 + salt, 1.0e9);
  s.algorithm = "interpolation";
  s.switched_to_modified = true;
  s.speed_evals = (std::int64_t{1} << 40) + salt;
  s.intersect_solves = 98765 + salt;
  s.warmstart = core::WarmStart::Hit;
  s.iterations_saved = 5 + salt;
  s.warm_probes = 4 + salt;
  s.search_speed_evals = 4321 + salt;
  s.search_intersect_solves = 1234 + salt;
  s.bracket_saturations = 3 + salt;
  return r;
}

/// Field-by-field equality, the slope compared bit for bit.
void expect_identical(const core::PartitionResult& got,
                      const core::PartitionResult& want) {
  EXPECT_EQ(got.distribution.counts, want.distribution.counts);
  const core::PartitionStats& a = got.stats;
  const core::PartitionStats& b = want.stats;
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.intersections, b.intersections);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_slope),
            std::bit_cast<std::uint64_t>(b.final_slope));
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.switched_to_modified, b.switched_to_modified);
  EXPECT_EQ(a.speed_evals, b.speed_evals);
  EXPECT_EQ(a.intersect_solves, b.intersect_solves);
  EXPECT_EQ(a.warmstart, b.warmstart);
  EXPECT_EQ(a.iterations_saved, b.iterations_saved);
  EXPECT_EQ(a.warm_probes, b.warm_probes);
  EXPECT_EQ(a.search_speed_evals, b.search_speed_evals);
  EXPECT_EQ(a.search_intersect_solves, b.search_intersect_solves);
  EXPECT_EQ(a.bracket_saturations, b.bracket_saturations);
}

/// Bytes of one count in the cache's packing: seven bits a byte.
std::size_t packed_size(std::int64_t count) {
  std::size_t bytes = 1;
  for (auto v = static_cast<std::uint64_t>(count); v >= 0x80; v >>= 7)
    ++bytes;
  return bytes;
}

/// The payload CacheStats::bytes reports for one entry.
std::size_t held_bytes(const std::string& key,
                       const core::PartitionResult& r) {
  std::size_t bytes = key.size();
  for (const std::int64_t c : r.distribution.counts) bytes += packed_size(c);
  return bytes;
}

TEST(PartitionCache, PackedEntriesRoundTripBitIdentical) {
  // Each edge of a 7-bit group, the largest exactly representable double
  // plus one, the int64 extremes and a negative (ten bytes).
  const std::vector<std::int64_t> values = {
      0,
      1,
      127,
      128,
      16383,
      16384,
      std::int64_t{1} << 31,
      (std::int64_t{1} << 53) + 1,
      std::numeric_limits<std::int64_t>::max(),
      -1,
      std::numeric_limits<std::int64_t>::min()};
  EXPECT_EQ(packed_size(values[2]), 1u);
  EXPECT_EQ(packed_size(values[3]), 2u);
  EXPECT_EQ(packed_size(values[8]), 9u);
  EXPECT_EQ(packed_size(values[10]), 10u);
  core::PartitionCache cache(64, 4);
  std::size_t bytes = 0;
  int salt = 0;
  const auto round_trip = [&](const core::PartitionResult& want) {
    const std::string key =
        core::PartitionCache::make_key(0x5eed + salt, 1000 + salt, {});
    EXPECT_FALSE(cache.insert(key, want));
    bytes += held_bytes(key, want);
    core::PartitionResult got;
    ASSERT_TRUE(cache.lookup(key, got));
    expect_identical(got, want);
    // A reused output, larger than the answer, is overwritten in full.
    got = synthetic_result(std::vector<std::int64_t>(5000, 9), 99);
    ASSERT_TRUE(cache.peek(key, got));
    expect_identical(got, want);
    ++salt;
  };
  // p = 1: every value alone.
  for (const std::int64_t v : values) round_trip(synthetic_result({v}, salt));
  // p = 64 and p = 4096: the values cycled, offset by p.
  for (const std::size_t p : {std::size_t{64}, std::size_t{4096}}) {
    std::vector<std::int64_t> counts(p);
    for (std::size_t i = 0; i < p; ++i)
      counts[i] = values[(i + p) % values.size()];
    round_trip(synthetic_result(counts, salt));
  }
  // An empty distribution packs to nothing.
  round_trip(synthetic_result({}, salt));
  const core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, values.size() + 3);
  EXPECT_EQ(stats.bytes, bytes);
  EXPECT_EQ(stats.hits, 2 * static_cast<std::int64_t>(values.size() + 3));
}

TEST(PartitionCache, ReinsertKeepsTheIncumbent) {
  core::PartitionCache cache(8, 1);
  const std::string key = core::PartitionCache::make_key(7, 100, {});
  const core::PartitionResult first = synthetic_result({60, 40}, 0);
  EXPECT_FALSE(cache.insert(key, first));
  const std::size_t bytes = cache.stats().bytes;
  EXPECT_EQ(bytes, held_bytes(key, first));
  // A concurrent miss on the same key stores its own copy of the answer;
  // the entry already there stays, and so does the payload count.
  EXPECT_FALSE(cache.insert(key, synthetic_result({1, 99, 300}, 1)));
  core::PartitionResult got;
  ASSERT_TRUE(cache.lookup(key, got));
  expect_identical(got, first);
  const core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.bytes, bytes);
}

TEST(PartitionCache, EvictionAtCapacityReturnsTheVictimsBytes) {
  core::PartitionCache cache(2, 1);
  std::vector<std::string> keys;
  std::vector<core::PartitionResult> results;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(core::PartitionCache::make_key(11, 500 + i, {}));
    // Payloads of different sizes, so a wrong victim shows in bytes.
    results.push_back(synthetic_result(
        std::vector<std::int64_t>(static_cast<std::size_t>(4 + 60 * i),
                                  std::int64_t{1} << (7 * i)),
        i));
  }
  EXPECT_FALSE(cache.insert(keys[0], results[0]));
  EXPECT_FALSE(cache.insert(keys[1], results[1]));
  EXPECT_TRUE(cache.insert(keys[2], results[2]));  // evicts keys[0]
  core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.bytes, held_bytes(keys[1], results[1]) +
                             held_bytes(keys[2], results[2]));
  core::PartitionResult got;
  EXPECT_FALSE(cache.peek(keys[0], got));
  for (int i = 1; i < 3; ++i) {
    ASSERT_TRUE(cache.peek(keys[static_cast<std::size_t>(i)], got));
    expect_identical(got, results[static_cast<std::size_t>(i)]);
  }
}

TEST(PartitionCache, BytesGaugeReturnsToZeroAfterClear) {
  obs::Gauge& gauge = obs::metrics().gauge(obs::names::kServerCacheBytes);
  const std::int64_t before = gauge.value();
  {
    core::PartitionCache a(16, 4), b(16, 4);
    std::size_t held = 0;
    for (int i = 0; i < 6; ++i) {
      const std::string key = core::PartitionCache::make_key(3, 900 + i, {});
      const core::PartitionResult r =
          synthetic_result(std::vector<std::int64_t>(64, 200 + i), i);
      (void)a.insert(key, r);
      (void)b.insert(key, r);
      held += held_bytes(key, r);
    }
    EXPECT_EQ(a.stats().bytes, held);
    // Two caches sum in the one gauge.
    EXPECT_EQ(gauge.value() - before, static_cast<std::int64_t>(2 * held));
    a.clear();
    EXPECT_EQ(a.stats().bytes, 0u);
    EXPECT_EQ(a.stats().entries, 0u);
    EXPECT_EQ(gauge.value() - before, static_cast<std::int64_t>(held));
    // A cleared cache fills and counts again.
    (void)a.insert(core::PartitionCache::make_key(3, 1, {}),
                   synthetic_result({1}, 0));
    EXPECT_GT(a.stats().bytes, 0u);
  }
  // A destroyed cache takes what it still held out of the gauge.
  EXPECT_EQ(gauge.value(), before);
}

TEST(PartitionCache, ConcurrentInsertLookupEvictAtCapacity16) {
  // 64 keys over a 16-entry cache (4 shards of 4): every thread keeps
  // inserting, hitting and evicting, so the index's references into the
  // list nodes churn under contention. Run under TSan in CI.
  constexpr int kKeys = 64;
  std::vector<std::string> keys;
  std::vector<core::PartitionResult> results;
  for (int k = 0; k < kKeys; ++k) {
    keys.push_back(core::PartitionCache::make_key(0xcafe, 10000 + k, {}));
    std::vector<std::int64_t> counts(64);
    for (std::size_t i = 0; i < counts.size(); ++i)
      counts[i] = (std::int64_t{1} << (k % 60)) + static_cast<std::int64_t>(i);
    results.push_back(synthetic_result(std::move(counts), k));
  }
  core::PartitionCache cache(16, 4);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<int> mismatches{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      core::PartitionResult got;
      for (int i = 0; i < kPerThread; ++i) {
        const auto k = static_cast<std::size_t>((i * 7 + t * 13) % kKeys);
        if (cache.lookup(keys[k], got)) {
          ++hits;
          if (got.distribution.counts != results[k].distribution.counts ||
              got.stats.iterations != results[k].stats.iterations)
            ++mismatches;
        } else {
          (void)cache.insert(keys[k], results[k]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const core::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPerThread);
  EXPECT_LE(stats.entries, 16u);
  EXPECT_GT(stats.evictions, 0);
  // The payload count matches what the cache still holds.
  std::size_t held = 0;
  core::PartitionResult got;
  for (int k = 0; k < kKeys; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (cache.peek(keys[i], got)) held += held_bytes(keys[i], results[i]);
  }
  EXPECT_EQ(stats.bytes, held);
  cache.clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
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
  // The miss path passes its once-per-request compilation to the engine's
  // compiled overload; hits and direct partition() calls must still agree
  // bit for bit.
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

TEST(SharedCompiledList, FourThreadsAnswerBitIdenticallyToSerialSolves) {
  // The engine reads a compiled list and keeps nothing of it, so threads
  // may share one: at p = 64, and at p = 4096, whose sweeps split across
  // the lane pool, every answer equals the serial one bit for bit. Run
  // under TSan in CI.
  for (const std::size_t p : {std::size_t{64}, std::size_t{4096}}) {
    const core::SyntheticFleet fleet = core::make_synthetic_fleet(p, 11);
    const core::CompiledSpeedList compiled =
        core::CompiledSpeedList::compile(fleet.list());
    std::vector<std::int64_t> ns;
    for (int i = 0; i < 4; ++i)
      ns.push_back(static_cast<std::int64_t>(p) * 20'000 + 7919LL * i);
    std::vector<core::PartitionResult> serial;
    for (const std::int64_t n : ns)
      serial.push_back(core::partition(compiled, n));

    constexpr int kThreads = 4;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < ns.size(); ++i) {
          const std::size_t j = (static_cast<std::size_t>(t) + i) % ns.size();
          const core::PartitionResult r = core::partition(compiled, ns[j]);
          if (r.distribution.counts != serial[j].distribution.counts ||
              std::bit_cast<std::uint64_t>(r.stats.final_slope) !=
                  std::bit_cast<std::uint64_t>(serial[j].stats.final_slope) ||
              r.stats.speed_evals != serial[j].stats.speed_evals ||
              r.stats.intersect_solves != serial[j].stats.intersect_solves)
            ++mismatches;
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0) << "p = " << p;
  }
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
