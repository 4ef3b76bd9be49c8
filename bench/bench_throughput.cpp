// Throughput benchmark for the compiled speed-model layer (core/compiled.*)
// and the concurrent batch-partitioning engine (core/server.hpp).
//
// Three measurements, written to BENCH_partition_throughput.json:
//   1. kernel   — closed-form intersections (compiled layer) against the
//                 generic bisection of SpeedFunction::intersect on the same
//                 slope workload; expected well above 2x.
//   2. partition — full partition() runs on the known families against the
//                 same models behind a forwarding subclass that compiles to
//                 Generic entries, so every solve is a virtual call; the
//                 virtual calls already use the closed-form kernels, so this
//                 isolates the devirtualization + SoA win and must never
//                 regress.
//   3. server   — PartitionServer::run_batch on an all-distinct (cache-miss)
//                 request batch at increasing thread counts.
//   4. serve_hit — the cache-hit path: keying via the allocation-free
//                 CompiledSpeedList::fingerprint_of against the old
//                 compile-to-fingerprint approach, plus the end-to-end
//                 serve() latency on a warm cache.
//   5. near_miss — serve() under near-miss traffic (same models, drifting
//                 n: every request a cache miss) with the server's
//                 per-fingerprint warm-start on vs. off. The slope hint
//                 narrows each search without changing the distribution,
//                 so both the deterministic search_speed_evals counters and
//                 the end-to-end wall clock must improve.
//
// The process metrics registry (obs::metrics) is embedded in the JSON dump
// under "metrics", so one artifact carries both the timings and the
// engine's own accounting of the run.
//
// `--gate` turns measurements 1, 2, 4, and 5 into pass/fail checks for CI:
// exit 1 when the kernel speedup drops below 2x, compiled partitioning is
// slower than the virtual baseline, fingerprint keying is not faster than
// compile keying (each with a small tolerance for timer noise), the
// near-miss warm-start saves fewer than 3x the search-phase speed
// evaluations, or hinted serve() is slower than cold serve().
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/fpm.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace fpm;

/// The intersection workload: a heterogeneous ensemble plus, per function,
/// slopes chosen so the crossings sweep the whole modelled range (slope =
/// speed(x)/x puts the crossing exactly at x).
struct KernelWorkload {
  bench::OwnedEnsemble ensemble;
  std::vector<std::vector<double>> slopes;  // [function][slope]
};

KernelWorkload make_kernel_workload() {
  KernelWorkload w;
  for (auto fam : {bench::power_family(40), bench::exp_family(40)})
    for (auto& f : fam.owned) w.ensemble.owned.push_back(std::move(f));
  w.slopes.resize(w.ensemble.owned.size());
  for (std::size_t i = 0; i < w.ensemble.owned.size(); ++i) {
    const auto& f = *w.ensemble.owned[i];
    for (double x = 1e2; x <= 1e8; x *= 10.0)
      w.slopes[i].push_back(f.speed(x) / x);
  }
  return w;
}

/// One pass of the workload through the generic bisection (the
/// SpeedFunction base-class intersect, qualified to bypass the overrides).
double run_kernel_generic(const KernelWorkload& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.ensemble.owned.size(); ++i)
    for (const double s : w.slopes[i])
      acc += w.ensemble.owned[i]->SpeedFunction::intersect(s);
  return acc;
}

/// One pass through the compiled closed forms.
double run_kernel_compiled(const core::CompiledSpeedList& compiled,
                           const KernelWorkload& w) {
  double acc = 0.0;
  for (std::size_t i = 0; i < w.ensemble.owned.size(); ++i)
    for (const double s : w.slopes[i]) acc += compiled.intersect(i, s);
  return acc;
}

/// Best-of-`reps` wall time of `fn` (seconds), `inner` calls per rep.
template <typename Fn>
double best_of(int reps, int inner, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    util::Timer timer;
    for (int i = 0; i < inner; ++i) benchmark::DoNotOptimize(fn());
    best = std::min(best, timer.seconds() / inner);
  }
  return best;
}

/// Forwards to a wrapped model. compile() does not know this type, so
/// every entry is Generic and each solve is a virtual call into the
/// wrapped model: the virtual-dispatch baseline of measurement 2.
class VirtualOnly final : public core::SpeedFunction {
 public:
  explicit VirtualOnly(const core::SpeedFunction& base) : base_(&base) {}
  double speed(double x) const override { return base_->speed(x); }
  double max_size() const override { return base_->max_size(); }
  double intersect(double slope) const override {
    return base_->intersect(slope);
  }

 private:
  const core::SpeedFunction* base_;
};

/// `list`'s models behind VirtualOnly (owning; `list` must outlive it).
struct VirtualEnsemble {
  explicit VirtualEnsemble(const core::SpeedList& list) {
    wrapped.reserve(list.size());
    for (const core::SpeedFunction* f : list) wrapped.emplace_back(*f);
    for (const VirtualOnly& f : wrapped) speeds.push_back(&f);
  }
  std::vector<VirtualOnly> wrapped;
  core::SpeedList speeds;
};

/// The partition workload: every registry algorithm that needs no bounds,
/// over a mixed analytic ensemble, at two problem sizes.
double run_partitions(const core::SpeedList& list) {
  double acc = 0.0;
  for (const char* alg : {core::kAlgorithmBasic, core::kAlgorithmModified,
                          core::kAlgorithmCombined,
                          core::kAlgorithmInterpolation}) {
    core::PartitionPolicy policy;
    policy.algorithm = alg;
    for (const std::int64_t n : {1000000LL, 100000000LL}) {
      const core::PartitionResult r = core::partition(list, n, policy);
      acc += static_cast<double>(r.distribution.counts[0]);
    }
  }
  return acc;
}

// ---------------------------------------------------------------------
// google-benchmark registrations (standard reporting; the gate below does
// its own best-of timing so CI failures do not depend on benchmark flags).
// ---------------------------------------------------------------------

void BM_KernelGeneric(benchmark::State& state) {
  const KernelWorkload w = make_kernel_workload();
  for (auto _ : state) benchmark::DoNotOptimize(run_kernel_generic(w));
}
BENCHMARK(BM_KernelGeneric)->Unit(benchmark::kMillisecond);

void BM_KernelCompiled(benchmark::State& state) {
  const KernelWorkload w = make_kernel_workload();
  const auto compiled = core::CompiledSpeedList::compile(w.ensemble.list());
  for (auto _ : state)
    benchmark::DoNotOptimize(run_kernel_compiled(compiled, w));
}
BENCHMARK(BM_KernelCompiled)->Unit(benchmark::kMillisecond);

void BM_PartitionVirtual(benchmark::State& state) {
  const bench::OwnedEnsemble e = bench::exp_family(64);
  const core::SpeedList list = e.list();
  const VirtualEnsemble virt(list);
  for (auto _ : state) benchmark::DoNotOptimize(run_partitions(virt.speeds));
}
BENCHMARK(BM_PartitionVirtual)->Unit(benchmark::kMillisecond);

void BM_PartitionCompiled(benchmark::State& state) {
  const bench::OwnedEnsemble e = bench::exp_family(64);
  const core::SpeedList list = e.list();
  for (auto _ : state) benchmark::DoNotOptimize(run_partitions(list));
}
BENCHMARK(BM_PartitionCompiled)->Unit(benchmark::kMillisecond);

/// Serves `requests` all-distinct partition requests on `threads` threads;
/// returns requests per second.
double server_miss_rate(unsigned threads, int requests,
                        const bench::OwnedEnsemble& e) {
  core::ServerOptions opts;
  opts.threads = threads;
  opts.cache_capacity = 0;  // every request recomputes: pure miss load
  core::PartitionServer server(opts);
  std::vector<core::BatchRequest> batch;
  batch.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i)
    batch.push_back({e.list(), 1000000 + 7919LL * i, {}});
  util::Timer timer;
  const auto results = server.run_batch(std::move(batch));
  const double secs = timer.seconds();
  benchmark::DoNotOptimize(results.front().result.distribution.counts.data());
  return static_cast<double>(requests) / std::max(secs, 1e-12);
}

/// Near-miss traffic: one model list, a different n per request, so every
/// request misses the result cache but (with warm-starting on) reuses the
/// fingerprint's remembered slope.
constexpr int kNearMissRequests = 200;

std::int64_t near_miss_n(int i) { return 1000000 + 37LL * i; }

struct NearMissOutcome {
  std::int64_t search_evals = 0;
  std::int64_t speed_evals = 0;
  int warm_hits = 0;
  int warm_stale = 0;
};

NearMissOutcome serve_near_miss(core::PartitionServer& server,
                                const core::SpeedList& list) {
  NearMissOutcome o;
  for (int i = 0; i < kNearMissRequests; ++i) {
    const core::PartitionResult r = server.serve(list, near_miss_n(i));
    o.search_evals += r.stats.search_speed_evals;
    o.speed_evals += r.stats.speed_evals;
    if (r.stats.warmstart == core::WarmStart::Hit) ++o.warm_hits;
    if (r.stats.warmstart == core::WarmStart::Stale) ++o.warm_stale;
  }
  return o;
}

/// Seconds per request for one pass of the near-miss sequence. The result
/// cache is cleared before each pass (the point is the miss path); the
/// server's slope hints persist, which is the steady state being measured.
double near_miss_pass(core::PartitionServer& server,
                      const core::SpeedList& list) {
  server.clear_cache();
  util::Timer timer;
  double acc = 0.0;
  for (int i = 0; i < kNearMissRequests; ++i)
    acc += static_cast<double>(
        server.serve(list, near_miss_n(i)).distribution.counts[0]);
  benchmark::DoNotOptimize(acc);
  return timer.seconds() / kNearMissRequests;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string out = "BENCH_partition_throughput.json";
  // Strip our own flags before google-benchmark sees (and rejects) them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0)
      gate = true;
    else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
      out = argv[++i];
    else
      argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // --- 1. kernel: closed-form vs generic bisection ----------------------
  const KernelWorkload w = make_kernel_workload();
  const auto compiled = core::CompiledSpeedList::compile(w.ensemble.list());
  const double t_generic = best_of(5, 3, [&] { return run_kernel_generic(w); });
  const double t_closed =
      best_of(5, 3, [&] { return run_kernel_compiled(compiled, w); });
  const double kernel_speedup = t_generic / t_closed;

  // --- 2. partition: known families vs virtual calls --------------------
  const bench::OwnedEnsemble e = bench::exp_family(64);
  const core::SpeedList list = e.list();
  const VirtualEnsemble virt(list);
  const double t_virtual =
      best_of(5, 1, [&] { return run_partitions(virt.speeds); });
  const double t_compiled = best_of(5, 1, [&] { return run_partitions(list); });
  const double partition_speedup = t_virtual / t_compiled;

  // --- 3. server: cache-miss batch scaling over threads -----------------
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts{1};
  if (hw >= 2) thread_counts.push_back(2);
  if (hw >= 4) thread_counts.push_back(4);
  if (hw > 4) thread_counts.push_back(hw);
  const bench::OwnedEnsemble se = bench::power_family(16);
  const int requests = 256;
  std::vector<double> rates;
  for (const unsigned t : thread_counts)
    rates.push_back(server_miss_rate(t, requests, se));

  // --- 4. serve_hit: warm-cache latency and cache keying ----------------
  // A hit needs only the key, so serving from a warm cache must not pay
  // for a full model compilation; compare the allocation-free fingerprint
  // against compiling just to read the fingerprint (the old keying).
  const core::SpeedList hit_list = se.list();
  const double t_key_compile = best_of(5, 200, [&] {
    return core::CompiledSpeedList::compile(hit_list).fingerprint();
  });
  const double t_key_fp = best_of(5, 200, [&] {
    return core::CompiledSpeedList::fingerprint_of(hit_list);
  });
  const double keying_speedup = t_key_compile / t_key_fp;
  core::PartitionServer hit_server({.threads = 1});
  const std::int64_t hit_n = 1000000;
  hit_server.serve(hit_list, hit_n);  // warm the cache: one miss
  const double t_hit = best_of(5, 200, [&] {
    return hit_server.serve(hit_list, hit_n).distribution.counts[0];
  });

  // --- 5. near_miss: drifting-n serve() with warm-start on vs off -------
  // Fresh single-thread servers so the returned stats are the engine's own
  // (every request is a miss). The counter comparison is deterministic;
  // the wall clock backs it with an end-to-end speedup.
  core::PartitionServer nm_cold({.threads = 1, .warm_start = false});
  core::PartitionServer nm_warm({.threads = 1});
  const NearMissOutcome nm_cold_out = serve_near_miss(nm_cold, hit_list);
  const NearMissOutcome nm_warm_out = serve_near_miss(nm_warm, hit_list);
  const double nm_eval_ratio =
      nm_warm_out.search_evals > 0
          ? static_cast<double>(nm_cold_out.search_evals) /
                static_cast<double>(nm_warm_out.search_evals)
          : std::numeric_limits<double>::infinity();
  double t_nm_cold = std::numeric_limits<double>::infinity();
  double t_nm_warm = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 5; ++r) {
    t_nm_cold = std::min(t_nm_cold, near_miss_pass(nm_cold, hit_list));
    t_nm_warm = std::min(t_nm_warm, near_miss_pass(nm_warm, hit_list));
  }
  const double nm_speedup = t_nm_cold / t_nm_warm;

  util::Table t("partition throughput",
                {"metric", "baseline", "optimized", "speedup"});
  t.add_row({"intersect kernel (ms/pass)", util::fmt(t_generic * 1e3, 3),
             util::fmt(t_closed * 1e3, 3), util::fmt(kernel_speedup, 2)});
  t.add_row({"partition sweep (ms)", util::fmt(t_virtual * 1e3, 3),
             util::fmt(t_compiled * 1e3, 3), util::fmt(partition_speedup, 2)});
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    t.add_row({"server miss batch, " + util::fmt(thread_counts[i]) +
                   " thread(s) (req/s)",
               util::fmt(rates[0], 0), util::fmt(rates[i], 0),
               util::fmt(rates[i] / rates[0], 2)});
  t.add_row({"cache keying (us)", util::fmt(t_key_compile * 1e6, 3),
             util::fmt(t_key_fp * 1e6, 3), util::fmt(keying_speedup, 2)});
  t.add_row({"serve cache hit (us)", "-", util::fmt(t_hit * 1e6, 3), "-"});
  t.add_row({"serve near-miss (us/req)", util::fmt(t_nm_cold * 1e6, 3),
             util::fmt(t_nm_warm * 1e6, 3), util::fmt(nm_speedup, 2)});
  t.add_row({"near-miss search evals", util::fmt(nm_cold_out.search_evals),
             util::fmt(nm_warm_out.search_evals),
             util::fmt(nm_eval_ratio, 2)});
  bench::emit(t);

  std::ofstream json(out);
  json << "{\n"
       << "  \"kernel\": {\"generic_s\": " << t_generic
       << ", \"closed_form_s\": " << t_closed
       << ", \"speedup\": " << kernel_speedup << "},\n"
       << "  \"partition\": {\"virtual_s\": " << t_virtual
       << ", \"compiled_s\": " << t_compiled
       << ", \"speedup\": " << partition_speedup << "},\n"
       << "  \"server\": [";
  for (std::size_t i = 0; i < thread_counts.size(); ++i)
    json << (i ? ", " : "") << "{\"threads\": " << thread_counts[i]
         << ", \"requests\": " << requests
         << ", \"requests_per_s\": " << rates[i]
         << ", \"scaling\": " << rates[i] / rates[0] << "}";
  json << "],\n"
       << "  \"serve_hit\": {\"key_compile_s\": " << t_key_compile
       << ", \"key_fingerprint_s\": " << t_key_fp
       << ", \"keying_speedup\": " << keying_speedup
       << ", \"hit_s\": " << t_hit << "},\n"
       << "  \"near_miss\": {\"requests\": " << kNearMissRequests
       << ", \"cold_search_speed_evals\": " << nm_cold_out.search_evals
       << ", \"warm_search_speed_evals\": " << nm_warm_out.search_evals
       << ", \"search_eval_ratio\": " << nm_eval_ratio
       << ", \"warm_hits\": " << nm_warm_out.warm_hits
       << ", \"warm_stale\": " << nm_warm_out.warm_stale
       << ", \"cold_s_per_req\": " << t_nm_cold
       << ", \"warm_s_per_req\": " << t_nm_warm
       << ", \"speedup\": " << nm_speedup << "},\n"
       << "  \"metrics\": " << obs::metrics().to_json() << "}\n";
  std::cout << "wrote " << out << "\n";

  if (gate) {
    bool ok = true;
    if (kernel_speedup < 2.0) {
      std::cerr << "GATE FAIL: closed-form kernel speedup "
                << util::fmt(kernel_speedup, 2) << "x < 2x\n";
      ok = false;
    }
    // 15% tolerance absorbs timer noise; a real regression (losing the
    // devirtualized path) shows up far above it.
    if (t_compiled > t_virtual * 1.15) {
      std::cerr << "GATE FAIL: compiled partitioning "
                << util::fmt(t_compiled * 1e3, 3)
                << " ms slower than virtual baseline "
                << util::fmt(t_virtual * 1e3, 3) << " ms\n";
      ok = false;
    }
    // The fingerprint key skips entry/pool materialization entirely, so it
    // must beat compile-to-fingerprint comfortably; 1.2x leaves room for
    // timer noise on tiny ensembles.
    if (t_key_fp > t_key_compile / 1.2) {
      std::cerr << "GATE FAIL: fingerprint keying "
                << util::fmt(t_key_fp * 1e6, 3)
                << " us not faster than compile keying "
                << util::fmt(t_key_compile * 1e6, 3) << " us\n";
      ok = false;
    }
    // Deterministic counter check: the per-fingerprint slope hint must
    // collapse the search phase of every post-first miss.
    if (nm_eval_ratio < 3.0) {
      std::cerr << "GATE FAIL: near-miss search_speed_evals reduction "
                << util::fmt(nm_eval_ratio, 2) << "x < 3x\n";
      ok = false;
    }
    if (nm_warm_out.speed_evals > nm_cold_out.speed_evals) {
      std::cerr << "GATE FAIL: hinted near-miss speed_evals "
                << nm_warm_out.speed_evals << " exceed cold "
                << nm_cold_out.speed_evals << "\n";
      ok = false;
    }
    // The wall clock must follow the counters; 10% tolerance for noise.
    if (t_nm_warm > t_nm_cold * 1.1) {
      std::cerr << "GATE FAIL: hinted near-miss serve "
                << util::fmt(t_nm_warm * 1e6, 3)
                << " us/req slower than cold "
                << util::fmt(t_nm_cold * 1e6, 3) << " us/req\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "gate passed: kernel " << util::fmt(kernel_speedup, 2)
              << "x, partition " << util::fmt(partition_speedup, 2)
              << "x, keying " << util::fmt(keying_speedup, 2)
              << "x, near-miss evals " << util::fmt(nm_eval_ratio, 2)
              << "x (serve " << util::fmt(nm_speedup, 2) << "x)\n";
  }
  return 0;
}
