// Allocation guard for the model walk (core/compiled.*) and the result
// cache (core/server.*). This binary replaces the global operator
// new/delete with counting versions over malloc/free, so a test can count
// the allocations one call makes, and the bytes they leave allocated:
//   - fingerprint_of, the cache-key fast path, allocates nothing;
//   - compile() lays a list out in one block: exactly one allocation for
//     a non-empty list, whatever its length, and a p = 64 list's block
//     stays within its measured size;
//   - a cached p = 64 answer keeps its counts packed and its key once;
//   - a solve and a line total leave no heap behind them;
//   - queued requests of one fleet compile it once, and a single-number
//     VGB call compiles nothing.
// Every replaced form allocates and frees through malloc/free, so the
// sanitizer build sees matched pairs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "apps/vgb.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "helpers.hpp"

namespace {

std::atomic<std::int64_t> g_allocations{0};
/// Bytes allocated through operator new and not yet freed, each block
/// counted at the allocator's usable size (glibc only; 0 elsewhere).
std::atomic<std::int64_t> g_live_bytes{0};

/// Allocations of exactly g_watched_size bytes, on every thread, while that
/// size is non-zero; and this thread's last allocation size.
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::int64_t> g_watched{0};
thread_local std::size_t t_last_size = 0;

void watch(std::size_t size) {
  t_last_size = size;
  if (size == g_watched_size.load(std::memory_order_relaxed))
    g_watched.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t usable_size(void* p) {
#if defined(__GLIBC__)
  return static_cast<std::int64_t>(malloc_usable_size(p));
#else
  (void)p;
  return 0;
#endif
}

void* counted(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(usable_size(p), std::memory_order_relaxed);
  return p;
}

void* counted_alloc(std::size_t size) {
  watch(size);
  return counted(std::malloc(size == 0 ? 1 : size));
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  watch(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return counted(
      std::aligned_alloc(a, (size + a - 1) / a * a + (size == 0 ? a : 0)));
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Not inlined: GCC would otherwise see free() reached from a block that
// operator new returned and flag it (-Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) noexcept {
  g_live_bytes.fetch_sub(usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return checked(counted_alloc(size)); }
void* operator new[](std::size_t size) { return checked(counted_alloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(counted_alloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(counted_alloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace fpm {
namespace {

using core::CompiledSpeedList;

/// Allocations made while `call` runs on this thread.
template <typename Call>
std::int64_t allocations(Call&& call) {
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Blocks the size of `list`'s compiled block that `call` allocates, on
/// any thread. compile() makes that one allocation: the layout, a multiple
/// of 8 bytes, plus 63 bytes of alignment slack. The size is odd, so no
/// array of 2-, 4- or 8-byte elements has it.
template <typename Call>
std::int64_t compiled_blocks(const core::SpeedList& list, Call&& call) {
  (void)CompiledSpeedList::compile(list);
  const std::size_t block = t_last_size;
  EXPECT_EQ(block % 2, 1u);
  g_watched.store(0, std::memory_order_relaxed);
  g_watched_size.store(block, std::memory_order_relaxed);
  call();
  g_watched_size.store(0, std::memory_order_relaxed);
  return g_watched.load(std::memory_order_relaxed);
}

/// A model whose speed() blocks until release(): a request over it holds
/// the server's worker inside its solve.
class Gate final : public core::SpeedFunction {
 public:
  double speed(double) const override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return 100.0;
  }
  double max_size() const override { return 1e9; }
  bool wait_entered() const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

TEST(AllocationGuard, CountingOperatorNewIsInstalled) {
  EXPECT_EQ(allocations([] {
              int* volatile p = new int(7);
              delete p;
            }),
            1);
}

TEST(AllocationGuard, FingerprintOfAllocatesNothing) {
  std::vector<test::Ensemble> ensembles = test::all_ensembles(8);
  ensembles.push_back(test::mixed_ensemble());
  auto base = std::make_shared<core::PiecewiseLinearSpeed>(
      std::vector<core::SpeedPoint>{{1e3, 180.0}, {5e5, 160.0}, {4e8, 12.0}});
  const core::ScaledSpeed scaled(base, 0.5);
  const core::GranularSpeed granular(base, 8.0);
  const core::SpeedList wrapped{&scaled, &granular, base.get()};
  std::vector<core::SpeedList> lists{wrapped};
  for (const test::Ensemble& e : ensembles) lists.push_back(e.list());
  const core::SyntheticFleet small = core::make_synthetic_fleet(64, 1);
  const core::SyntheticFleet large = core::make_synthetic_fleet(4096, 1);
  lists.push_back(small.list());
  lists.push_back(large.list());

  for (const core::SpeedList& list : lists) {
    bool generic = true;
    std::uint64_t fingerprint = 0, check = 0;
    EXPECT_EQ(allocations([&] {
                fingerprint =
                    CompiledSpeedList::fingerprint_of(list, &generic, &check);
              }),
              0)
        << "p = " << list.size();
    EXPECT_FALSE(generic);
    EXPECT_EQ(fingerprint, CompiledSpeedList::compile(list).fingerprint());
  }
}

/// The families a compiled list holds: which batch lanes and pools it
/// fills.
std::set<CompiledSpeedList::Family> families(const CompiledSpeedList& list) {
  std::set<CompiledSpeedList::Family> out;
  for (std::size_t i = 0; i < list.size(); ++i) out.insert(list.family(i));
  return out;
}

TEST(AllocationGuard, CompileAllocationsDoNotGrowWithP) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const core::SyntheticFleet small = core::make_synthetic_fleet(64, seed);
    const core::SyntheticFleet large = core::make_synthetic_fleet(4096, seed);
    const core::SpeedList small_list = small.list();
    const core::SpeedList large_list = large.list();
    const CompiledSpeedList small_compiled =
        CompiledSpeedList::compile(small_list);
    const CompiledSpeedList large_compiled =
        CompiledSpeedList::compile(large_list);
    // Every generated model but the piecewise ones rides a batch lane, so
    // equal family sets mean equal sets of non-empty lanes and pools.
    for (const CompiledSpeedList* c : {&small_compiled, &large_compiled}) {
      std::size_t piecewise = 0;
      for (std::size_t i = 0; i < c->size(); ++i)
        piecewise += c->family(i) == CompiledSpeedList::Family::Piecewise;
      ASSERT_EQ(c->batched_entries() + piecewise, c->size()) << "seed " << seed;
    }
    if (families(small_compiled) != families(large_compiled)) continue;
    ++compared;
    const std::int64_t at_64 =
        allocations([&] { (void)CompiledSpeedList::compile(small_list); });
    const std::int64_t at_4096 =
        allocations([&] { (void)CompiledSpeedList::compile(large_list); });
    EXPECT_EQ(at_64, at_4096) << "seed " << seed;
  }
  EXPECT_GE(compared, 8);
}

TEST(AllocationGuard, CompileMakesOneAllocation) {
  auto base = std::make_shared<core::PiecewiseLinearSpeed>(
      std::vector<core::SpeedPoint>{{1e3, 180.0}, {5e5, 160.0}, {4e8, 12.0}});
  const core::ScaledSpeed scaled(base, 0.5);
  const core::GranularSpeed granular(base, 8.0);
  const test::VirtualOnly generic(*base);
  const test::Ensemble mixed = test::mixed_ensemble();
  core::SpeedList every = mixed.list();
  every.insert(every.end(), {&scaled, &granular, &generic, base.get()});
  std::vector<core::SpeedList> lists{every};
  std::vector<core::SyntheticFleet> fleets;
  for (const std::size_t p : {1, 64, 4096})
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      fleets.push_back(core::make_synthetic_fleet(p, seed));
  for (const core::SyntheticFleet& fleet : fleets) lists.push_back(fleet.list());

  for (const core::SpeedList& list : lists) {
    std::optional<CompiledSpeedList> compiled;
    EXPECT_EQ(allocations([&] {
                compiled.emplace(CompiledSpeedList::compile(list));
              }),
              1)
        << "p = " << list.size();
    // A copy is one allocation too, and a move none.
    std::optional<CompiledSpeedList> copy;
    EXPECT_EQ(allocations([&] { copy.emplace(*compiled); }), 1)
        << "p = " << list.size();
    EXPECT_EQ(allocations([&] { CompiledSpeedList moved(std::move(*copy)); }),
              0)
        << "p = " << list.size();
  }
  EXPECT_EQ(allocations([] { (void)CompiledSpeedList::compile({}); }), 0);
}

TEST(AllocationGuard, CompiledListAtP64FitsItsBlock) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live bytes are measured with glibc's malloc_usable_size";
#endif
  // The serving workloads' fleet size.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 2004);
  const core::SpeedList list = fleet.list();
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  const std::int64_t bytes =
      g_live_bytes.load(std::memory_order_relaxed) - before;
  // Measured 6,120 bytes on x86-64 glibc: 64 16-byte entries, the lane
  // columns padded to 8 doubles, the records and breakpoints of the
  // piecewise models and the lanes' entry indices, in one block. With
  // each batched entry's parameters stored twice (a 72-byte entry beside
  // its lane columns) and the arrays allocated one by one, the list held
  // 10,888 bytes in 27 allocations.
  EXPECT_LE(bytes, 7000);
  EXPECT_GE(bytes, 4096);
}

TEST(AllocationGuard, CachedAnswerAtP64KeepsItsCountsPackedAndItsKeyOnce) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live bytes are measured with glibc's malloc_usable_size";
#endif
  // The serving workloads' fleet size and n range.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 2004);
  const core::SpeedList list = fleet.list();
  constexpr std::int64_t kN = 1'000'000;
  const core::PartitionResult result = core::partition(list, kN);
  const std::uint64_t fingerprint = CompiledSpeedList::fingerprint_of(list);
  constexpr int kEntries = 1024;
  std::vector<std::string> keys;
  for (int i = 0; i < kEntries; ++i)
    keys.push_back(core::PartitionCache::make_key(fingerprint, kN + i, {}));
  core::PartitionCache cache(4096, 16);
  const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  for (const std::string& key : keys) (void)cache.insert(key, result);
  const std::int64_t per_entry =
      (g_live_bytes.load(std::memory_order_relaxed) - before) / kEntries;
  ASSERT_EQ(cache.stats().entries, static_cast<std::size_t>(kEntries));
  // Measured 445 bytes an entry on x86-64 glibc: the list node with the
  // stats, the key, the packed counts (2-3 bytes a count), an index node
  // (key reference, hash, list position) and the index's bucket share.
  // Unpacked int64 counts add about 370 bytes and cross the bound; with a
  // second copy of the key in the index as well, an entry measures 853.
  EXPECT_LE(per_entry, 520);
  EXPECT_GE(per_entry, 256);
}

TEST(AllocationGuard, SolveAndLineTotalLeaveNoHeapBehind) {
#if !defined(__GLIBC__)
  GTEST_SKIP() << "live bytes are measured with glibc's malloc_usable_size";
#endif
  // A p = 1024 solve first starts the lane pool and registers the obs
  // counters; after that a p = 4096 solve (which splits its sweeps across
  // the pool) and a line total must free everything they allocate, in
  // scalar mode and on the best vector backend alike. Buffers kept per
  // thread between calls would stay grown to the largest p seen.
  const core::SyntheticFleet warm = core::make_synthetic_fleet(1024, 3);
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(4096, 3);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(fleet.list());
  constexpr std::int64_t kN = 100'000'000;
  for (const char* backend : {"off", "auto"}) {
    const test::BackendScope scope(backend);
    const double slope = core::partition(warm.list(), kN).stats.final_slope;
    const std::int64_t before = g_live_bytes.load(std::memory_order_relaxed);
    (void)core::partition(fleet.list(), kN);
    (void)core::total_size_at(compiled, slope, nullptr);
    EXPECT_EQ(g_live_bytes.load(std::memory_order_relaxed), before) << backend;
  }
}

TEST(AllocationGuard, QueuedRequestsOfOneFleetCompileItOnce) {
  // Six requests of one p = 64 fleet wait behind a gated solve in a
  // depth-3 queue: three are degraded on the submitting thread (two
  // displaced, one rejected) and three are solved by the worker. Each
  // would compile the fleet on its own; sharing the held model, they
  // allocate one compiled block between them.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 36);
  const core::SpeedList list = fleet.list();
  const test::Ensemble e = test::mixed_ensemble();
  Gate gate;
  core::SpeedList gated = e.list();
  gated.push_back(&gate);
  core::ServerOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 3;
  core::PartitionServer server(opts);
  struct Release {
    Gate& gate;
    ~Release() { gate.release(); }
  } release{gate};
  (void)server.serve(list, 2'000'000);  // stores the hint degrading needs
  std::vector<std::future<core::ServeResult>> answers;
  const std::int64_t blocks = compiled_blocks(list, [&] {
    answers.push_back(server.submit({gated, 100000, {}, {}}));
    ASSERT_TRUE(gate.wait_entered());
    const core::Priority order[] = {
        core::Priority::Low,  core::Priority::Low,  core::Priority::Low,
        core::Priority::High, core::Priority::High, core::Priority::Normal};
    for (std::size_t i = 0; i < std::size(order); ++i) {
      core::BatchRequest req{list, 2'100'000 + 7919 * static_cast<std::int64_t>(i),
                             {}, {}};
      req.slo.priority = order[i];
      answers.push_back(server.submit(std::move(req)));
    }
    gate.release();
    ASSERT_TRUE(server.drain(std::chrono::seconds(60)));
  });
  int ok = 0, degraded = 0;
  for (std::future<core::ServeResult>& f : answers) {
    const core::ServeResult r = f.get();
    ok += r.status == core::ServeStatus::Ok;
    degraded += r.status == core::ServeStatus::Degraded;
  }
  EXPECT_EQ(ok, 4);  // the gated solve and three of the fleet's
  EXPECT_EQ(degraded, 3);
  EXPECT_EQ(blocks, 1);
  EXPECT_EQ(server.cache_stats().models_held, 0u);
}

TEST(AllocationGuard, SingleNumberVgbCompilesNothing) {
  // The single-number model reads speeds at one reference size and solves
  // nothing, so it has no use for a compiled list; the functional model
  // compiles its models once per call.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(12, 37);
  const core::SpeedList list = fleet.list();
  apps::VgbOptions single;
  single.model = apps::VgbModel::SingleNumber;
  EXPECT_EQ(compiled_blocks(list,
                            [&] {
                              (void)apps::variable_group_block(list, 20000,
                                                               single);
                            }),
            0);
  EXPECT_EQ(compiled_blocks(list,
                            [&] {
                              (void)apps::variable_group_block(list, 20000,
                                                               {});
                            }),
            1);
}

}  // namespace
}  // namespace fpm
