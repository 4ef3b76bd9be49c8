// Pass/fail performance gates: every timing-ratio check on the library's
// fast paths, plus the open-loop load run of the SLO-aware server, in one
// table (gate, measured, threshold, verdict). Operation-count and answer
// checks live in the test suite instead (tests/test_warmstart.cpp,
// tests/test_simd.cpp, tests/test_performance_guard.cpp).
//
//   gates            print the table; exit 0 on timing misses
//   gates --gate     exit 1 on any miss (the CI bench-gate job)
//
// The load section's accounting identity and degraded error bounds are
// correctness checks, not timings: a violation exits 1 either way. The
// SIMD speedup gates are skipped (not failed) when the build has no
// vector kernels, and the 8-wide gate when no 8-wide variant can run here.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/detail/simd.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "util/timer.hpp"

namespace {

using namespace fpm;

/// The gate table and the two ways a run can fail.
struct Report {
  util::Table table{"performance gates",
                    {"gate", "measured", "threshold", "verdict"}};
  bool timing_failed = false;  ///< fatal only under --gate
  bool exact_failed = false;   ///< always fatal

  void timing(const std::string& gate, const std::string& measured,
              const std::string& threshold, bool pass) {
    add(gate, measured, threshold, pass);
    timing_failed |= !pass;
  }
  void exact(const std::string& gate, const std::string& measured,
             const std::string& threshold, bool pass) {
    add(gate, measured, threshold, pass);
    exact_failed |= !pass;
  }
  void skip(const std::string& gate, const std::string& threshold,
            const std::string& why) {
    table.add_row({gate, "-", threshold, "skipped (" + why + ")"});
  }

 private:
  void add(const std::string& gate, const std::string& measured,
           const std::string& threshold, bool pass) {
    table.add_row({gate, measured, threshold, pass ? "pass" : "FAIL"});
    if (!pass)
      std::cerr << "GATE FAIL: " << gate << ": " << measured << ", want "
                << threshold << "\n";
  }
};

std::string times(double ratio) { return util::fmt(ratio, 2) + "x"; }

/// Repetitions behind every timed ratio.
constexpr int kReps = 15;

/// Best-of-kReps wall time (seconds per call) of each side of a ratio,
/// `inner` calls per rep. The sides alternate rep by rep, so a slow stretch
/// of a shared host slows both sides rather than one.
template <typename A, typename B>
std::pair<double, double> best_of_both(int inner, A&& a, B&& b) {
  const auto once = [inner](auto& fn) {
    util::Timer timer;
    for (int i = 0; i < inner; ++i) benchmark::DoNotOptimize(fn());
    return timer.seconds() / inner;
  };
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int r = 0; r < kReps; ++r) {
    best_a = std::min(best_a, once(a));
    best_b = std::min(best_b, once(b));
  }
  return {best_a, best_b};
}

// --- Compiled models and the server's warm start ---------------------------

/// Forwards to a wrapped model. compile() does not know this type, so every
/// entry is Generic and each solve is a virtual call into the wrapped model.
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

/// Every registry algorithm that needs no bounds, at two problem sizes.
double run_partitions(const core::SpeedList& list) {
  double acc = 0.0;
  for (const char* alg : {core::kAlgorithmBasic, core::kAlgorithmModified,
                          core::kAlgorithmCombined,
                          core::kAlgorithmInterpolation}) {
    core::PartitionPolicy policy;
    policy.algorithm = alg;
    for (const std::int64_t n : {1000000LL, 100000000LL})
      acc += static_cast<double>(
          core::partition(list, n, policy).distribution.counts[0]);
  }
  return acc;
}

void throughput_gates(Report& report) {
  // Closed-form intersections against the generic bisection: 80 power/exp
  // curves, slopes that put the crossing at every decade of the range.
  bench::OwnedEnsemble kernel_set;
  for (auto fam : {bench::power_family(40), bench::exp_family(40)})
    for (auto& f : fam.owned) kernel_set.owned.push_back(std::move(f));
  std::vector<std::vector<double>> slopes(kernel_set.owned.size());
  for (std::size_t i = 0; i < slopes.size(); ++i)
    for (double x = 1e2; x <= 1e8; x *= 10.0)
      slopes[i].push_back(kernel_set.owned[i]->speed(x) / x);
  const auto compiled = core::CompiledSpeedList::compile(kernel_set.list());
  const auto [t_generic, t_closed] = best_of_both(
      3,
      [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < slopes.size(); ++i)
          for (const double s : slopes[i])
            acc += kernel_set.owned[i]->SpeedFunction::intersect(s);
        return acc;
      },
      [&] {
        double acc = 0.0;
        for (std::size_t i = 0; i < slopes.size(); ++i)
          for (const double s : slopes[i]) acc += compiled.intersect(i, s);
        return acc;
      });
  const double kernel = t_generic / t_closed;
  report.timing("closed-form kernel vs generic bisection", times(kernel),
                ">= 2x", kernel >= 2.0);

  // Compiled partitioning against the same models behind VirtualOnly.
  const bench::OwnedEnsemble exp64 = bench::exp_family(64);
  const core::SpeedList list = exp64.list();
  std::vector<VirtualOnly> wrapped;
  for (const core::SpeedFunction* f : list) wrapped.emplace_back(*f);
  core::SpeedList virt;
  for (const VirtualOnly& f : wrapped) virt.push_back(&f);
  const auto [t_virtual, t_compiled] =
      best_of_both(1, [&] { return run_partitions(virt); },
                   [&] { return run_partitions(list); });
  const double partition_ratio = t_compiled / t_virtual;
  report.timing("compiled partition vs Generic-wrapped list",
                times(partition_ratio), "<= 1.15x", partition_ratio <= 1.15);

  // Cache keying: the allocation-free fingerprint against compiling the
  // list just to read its fingerprint.
  const bench::OwnedEnsemble power16 = bench::power_family(16);
  const core::SpeedList hit_list = power16.list();
  const auto [t_key_compile, t_key_fp] = best_of_both(
      200,
      [&] { return core::CompiledSpeedList::compile(hit_list).fingerprint(); },
      [&] { return core::CompiledSpeedList::fingerprint_of(hit_list); });
  const double keying = t_key_compile / t_key_fp;
  report.timing("fingerprint_of keying vs compile keying", times(keying),
                ">= 1.2x", keying >= 1.2);

  // Near-miss serve(): 200 requests at drifting n, every one a cache miss,
  // with the per-fingerprint slope hint against warm_start = false.
  core::PartitionServer cold({.threads = 1, .warm_start = false});
  core::PartitionServer warm({.threads = 1});
  const auto near_miss_pass = [&hit_list](core::PartitionServer& server) {
    server.clear_cache();
    double acc = 0.0;
    for (int i = 0; i < 200; ++i)
      acc += static_cast<double>(
          server.serve(hit_list, 1000000 + 37LL * i).distribution.counts[0]);
    return acc;
  };
  const auto [t_cold, t_warm] =
      best_of_both(1, [&] { return near_miss_pass(cold); },
                   [&] { return near_miss_pass(warm); });
  const double near_miss = t_warm / t_cold;
  report.timing("hinted near-miss serve() vs cold serve()", times(near_miss),
                "<= 1.1x", near_miss <= 1.1);
}

// --- Vector kernels --------------------------------------------------------

constexpr std::uint64_t kSeed = 42;

/// The lanes the vector kernels accelerate, weighted the way a large CPU
/// fleet models out: power/exp decay dominating, no piecewise tails.
core::FleetMix closed_form_mix() {
  core::FleetMix mix;
  mix.constant = 0.05;
  mix.linear_decay = 0.15;
  mix.power_decay = 0.40;
  mix.exp_decay = 0.40;
  mix.piecewise = 0.0;
  mix.stepped = 0.0;
  return mix;
}

/// Stepped curves only: the stepped lane is an iterative solve costing
/// several closed-form entries each, so it is measured on its own fleet.
core::FleetMix stepped_mix() {
  core::FleetMix mix;
  mix.constant = mix.linear_decay = mix.power_decay = mix.exp_decay = 0.0;
  mix.piecewise = 0.0;
  mix.stepped = 1.0;
  return mix;
}

/// Seconds for one intersect_all sweep over each of `slopes` on each of
/// the `backends`: every sweep's best of kReps, summed over the slopes.
/// The backends alternate rep by rep, and each sweep is timed on its own,
/// so a helper of the lane pool that wakes late spoils one sweep's sample
/// rather than a whole rep.
std::vector<double> sweep_seconds(const core::CompiledSpeedList& c,
                                  const std::vector<std::string>& backends,
                                  const std::vector<double>& slopes) {
  std::vector<double> out(c.size());
  std::vector<std::vector<double>> best(
      backends.size(), std::vector<double>(
                           slopes.size(),
                           std::numeric_limits<double>::infinity()));
  for (int r = 0; r < kReps; ++r)
    for (std::size_t b = 0; b < backends.size(); ++b) {
      core::force_simd_backend(backends[b]);
      for (std::size_t s = 0; s < slopes.size(); ++s) {
        util::Timer timer;
        c.intersect_all(slopes[s], out);
        benchmark::DoNotOptimize(out.data());
        best[b][s] = std::min(best[b][s], timer.seconds());
      }
    }
  std::vector<double> total(backends.size(), 0.0);
  for (std::size_t b = 0; b < backends.size(); ++b)
    for (const double t : best[b]) total[b] += t;
  return total;
}

/// speed_all (the fine-tune epilogue's batched sweep) against the
/// per-entry virtual loop it replaced.
double epilogue_speedup(const core::SpeedList& list,
                        const core::CompiledSpeedList& c) {
  const std::size_t p = list.size();
  std::vector<double> xs(p), out(p);
  for (std::size_t i = 0; i < p; ++i)
    xs[i] = 1.0 + static_cast<double>((i * 37) % 100000);
  core::force_simd_backend("auto");
  const auto [t_batched, t_loop] = best_of_both(
      64,
      [&] {
        c.speed_all(xs, out);
        return out.data();
      },
      [&] {
        for (std::size_t i = 0; i < p; ++i) out[i] = list[i]->speed(xs[i]);
        return out.data();
      });
  return t_loop / t_batched;
}

void simd_gates(Report& report) {
  namespace simd = core::detail::simd;
  const std::string previous = core::to_string(core::active_simd_backend());
  // The variant "auto" selects; nullptr when the build has no vector kernels.
  const simd::SimdKernels* automatic = simd::resolved_simd_kernels();
  const bool available = automatic != nullptr;
  std::vector<double> slopes;
  for (int i = 0; i < 64; ++i)
    slopes.push_back(1e-4 * std::pow(10.0, 8.0 * i / 63.0));

  for (const std::size_t p : {256u, 1024u, 4096u}) {
    const std::string at = " (p = " + util::fmt(p) + ")";
    const core::SyntheticFleet fleet =
        core::make_synthetic_fleet(p, kSeed, closed_form_mix());
    const core::SpeedList list = fleet.list();
    const auto c = core::CompiledSpeedList::compile(list);
    if (!available) {
      report.skip("SIMD batch vs scalar" + at, ">= 2x", "no vector kernels");
      report.skip("avx512 vs best 4-wide" + at, "-", "no vector kernels");
      report.skip("batched epilogue vs per-entry loop" + at, ">= 2x",
                  "no vector kernels");
      continue;
    }
    // Every runnable variant against one scalar baseline.
    std::vector<const simd::SimdKernels*> variants;
    std::vector<std::string> backends{"off"};
    for (const simd::SimdKernels* k : simd::compiled_simd_variants())
      if (simd::simd_variant_supported(*k)) {
        variants.push_back(k);
        backends.emplace_back(k->name);
      }
    const std::vector<double> t = sweep_seconds(c, backends, slopes);
    double automatic_speedup = 0.0, wide = 0.0, narrow = 0.0;
    for (std::size_t v = 0; v < variants.size(); ++v) {
      const double s = t[0] / t[v + 1];
      if (variants[v] == automatic) automatic_speedup = s;
      double& best = variants[v]->width >= 8 ? wide : narrow;
      best = std::max(best, s);
    }
    report.timing("SIMD batch vs scalar (" + std::string(automatic->name) +
                      ", p = " + util::fmt(p) + ")",
                  times(automatic_speedup), ">= 2x", automatic_speedup >= 2.0);
    // An 8-wide variant must never lose to the best 4-wide one, and must
    // show its width once p reaches 1024.
    const double wide_floor = p >= 1024 ? 1.3 : 0.95;
    const std::string wide_threshold =
        ">= " + util::fmt(wide_floor, 2) + "x best 4-wide";
    if (wide > 0.0 && narrow > 0.0)
      report.timing("avx512 vs best 4-wide" + at, times(wide / narrow),
                    wide_threshold, wide >= wide_floor * narrow);
    else
      report.skip("avx512 vs best 4-wide" + at, wide_threshold,
                  "no 8-wide variant");
    const double epilogue = epilogue_speedup(list, c);
    report.timing("batched epilogue vs per-entry loop" + at, times(epilogue),
                  ">= 2x", epilogue >= 2.0);
  }

  // The stepped Newton lane against the per-entry scalar bisection, on 64
  // lines within a factor sqrt(2) of a p = 4096 solve's final slope at
  // n = 1e4 per machine (nearly every crossing inside max_size).
  constexpr std::size_t kP = 4096;
  if (available) {
    const core::SyntheticFleet fleet =
        core::make_synthetic_fleet(kP, kSeed, stepped_mix());
    const core::SpeedList list = fleet.list();
    const auto c = core::CompiledSpeedList::compile(list);
    const double slope =
        core::partition(list, 10'000 * static_cast<std::int64_t>(kP))
            .stats.final_slope;
    std::vector<double> near;
    for (int i = 0; i < 64; ++i)
      near.push_back(slope * std::pow(2.0, i / 63.0 - 0.5));
    const std::vector<double> t = sweep_seconds(c, {"auto", "off"}, near);
    const double stepped = t[1] / t[0];
    report.timing("stepped Newton lane vs per-entry scalar (p = 4096)",
                  times(stepped), ">= 15x", stepped >= 15.0);
  } else {
    report.skip("stepped Newton lane vs per-entry scalar (p = 4096)",
                ">= 15x", "no vector kernels");
  }
  core::force_simd_backend(previous);

  // Intentionally loose: catches order-of-magnitude regressions only.
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(kP, kSeed);
  util::Timer timer;
  benchmark::DoNotOptimize(
      core::partition(fleet.list(), 1'000'000'000).distribution.total());
  const double solve_s = timer.seconds();
  report.timing("p = 4096 solve wall clock (n = 1e9)",
                util::fmt(solve_s * 1e3, 1) + " ms", "<= 5 s", solve_s <= 5.0);
}

// --- Open-loop load on the SLO-aware server --------------------------------

// The run: a calibration of the capacity on the request mix, then 2 s of
// Poisson arrivals at 0.8x capacity and 2 s of bursty arrivals at 2x, each
// request a draw from 32 Zipf-popular model lists with a 20 ms deadline.
// The lists are bench/perf's serve_overload fleets (p = 64): a solve costs
// tens of microseconds, so one sender can offer more than two workers
// answer, and the 2x phase overloads the server. A list of a few curves
// solves in a few microseconds, too fast for one sender to pass capacity.
constexpr double kPhaseS = 2.0;
constexpr double kDeadlineMs = 20.0;
constexpr int kFingerprints = 32;
constexpr double kZipf = 1.1;
constexpr std::size_t kInFlight = 32;  // calibration requests outstanding
constexpr std::uint64_t kLoadSeed = 42;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One model list of the Zipf universe (owning).
struct LoadModels {
  core::SyntheticFleet fleet;
  core::SpeedList list;
  std::int64_t base_n = 0;
};

std::vector<LoadModels> make_load_models() {
  std::vector<LoadModels> out(kFingerprints);
  for (int k = 0; k < kFingerprints; ++k) {
    LoadModels& m = out[static_cast<std::size_t>(k)];
    m.fleet = core::make_synthetic_fleet(64, 2004 + k);
    m.list = m.fleet.list();
    m.base_n = 1000000 + 7919LL * k;
  }
  return out;
}

/// A degraded answer kept for the post-run error-bound check.
struct DegradedSample {
  std::size_t models = 0;
  std::int64_t n = 0;
  std::vector<std::int64_t> counts;
  double bound = 0.0;
};

/// One request of the load: a Zipf-popular model list (its index in `mk`)
/// and the SLO mix, a 20 ms deadline, 20/60/20 low/normal/high priority,
/// 10% refusing degradation.
core::BatchRequest draw_request(const std::vector<LoadModels>& models,
                                const std::vector<double>& zipf_cdf,
                                std::mt19937_64& rng, std::size_t& mk) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const auto k = static_cast<std::size_t>(
      std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), uni(rng)) -
      zipf_cdf.begin());
  mk = std::min(k, models.size() - 1);
  const std::int64_t base = models[mk].base_n;
  core::BatchRequest req;
  req.speeds = models[mk].list;
  // 30% ask one of 8 hot sizes (cache hits); the rest drift n across a
  // wide range: near-miss solves, warm-started off the fingerprint hint.
  req.n = uni(rng) < 0.3 ? base + 1000 * static_cast<std::int64_t>(rng() % 8)
                         : base + static_cast<std::int64_t>(rng() % 250000);
  req.slo.deadline_s = kDeadlineMs * 1e-3;
  const double pu = uni(rng);
  req.slo.priority = pu < 0.2   ? core::Priority::Low
                     : pu < 0.8 ? core::Priority::Normal
                                : core::Priority::High;
  req.slo.allow_degraded = uni(rng) >= 0.1;
  return req;
}

struct PhaseOutcome {
  std::int64_t submitted = 0;
  core::SloStats before, after;  ///< server accounting around the phase
  double goodput = 0.0;          ///< on-time answers per second
  double p99_ms = 0.0;           ///< over answered (not shed) requests
};

/// One open-loop phase at `rate` requests/s: arrivals never wait for
/// completions. `bursty` modulates the Poisson process on a 200 ms cycle
/// (3x for a quarter of it, 1/3x for the rest: same mean, deeper queues).
PhaseOutcome run_phase(core::PartitionServer& server,
                       const std::vector<LoadModels>& models,
                       const std::vector<double>& zipf_cdf, double rate,
                       bool bursty, std::vector<DegradedSample>& samples) {
  PhaseOutcome out;
  out.before = server.slo_stats();
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<core::ServeResult>> pending;
  bool done = false;
  std::vector<double> latencies_ms;
  std::int64_t on_time = 0;
  // Drains futures in submission order so in-flight memory stays bounded.
  std::thread collector([&] {
    for (;;) {
      std::future<core::ServeResult> f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        f = std::move(pending.front());
        pending.pop_front();
      }
      const core::ServeResult r = f.get();
      if (r.status == core::ServeStatus::Shed) continue;
      latencies_ms.push_back(r.latency_s * 1e3);
      on_time += r.deadline_met ? 1 : 0;
    }
  });

  std::mt19937_64 rng(kLoadSeed ^ (bursty ? 2 : 1));
  std::exponential_distribution<double> gap(1.0);
  const Clock::time_point start = Clock::now();
  double next = 0.0;  // seconds from the phase start
  while (next < kPhaseS) {
    while (since(start) < next)
      std::this_thread::sleep_for(std::chrono::microseconds(std::min<int>(
          500, static_cast<int>((next - since(start)) * 1e6) + 1)));
    for (const double now = since(start); next <= now && next < kPhaseS;) {
      std::size_t mk = 0;
      core::BatchRequest req = draw_request(models, zipf_cdf, rng, mk);
      const std::int64_t n = req.n;
      std::future<core::ServeResult> f = server.submit(std::move(req));
      ++out.submitted;
      // Admission-time degradation resolves inside submit(): sample it, then
      // hand the collector an equivalent ready future.
      if (samples.size() < 64 &&
          f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        core::ServeResult r = f.get();
        if (r.status == core::ServeStatus::Degraded)
          samples.push_back(
              {mk, n, r.result.distribution.counts, r.error_bound});
        std::promise<core::ServeResult> relay;
        f = relay.get_future();
        relay.set_value(std::move(r));
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(f));
      }
      cv.notify_one();
      const double burst = std::fmod(next, 0.2) < 0.05 ? 3.0 : 1.0 / 3.0;
      next += gap(rng) / std::max(bursty ? rate * burst : rate, 1.0);
    }
  }
  server.drain(std::chrono::seconds(30));
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  collector.join();

  out.after = server.slo_stats();
  out.goodput = static_cast<double>(on_time) / kPhaseS;
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    out.p99_ms = latencies_ms[static_cast<std::size_t>(
        0.99 * static_cast<double>(latencies_ms.size() - 1))];
  }
  return out;
}

void load_gates(Report& report) {
  const unsigned threads =
      std::max(2u, std::thread::hardware_concurrency() / 2);
  const std::vector<LoadModels> models = make_load_models();
  std::vector<double> zipf_cdf;
  double total = 0.0;
  for (int i = 0; i < kFingerprints; ++i)
    zipf_cdf.push_back(total += std::pow(i + 1.0, -kZipf));
  for (double& c : zipf_cdf) c /= total;

  core::ServerOptions opts;
  opts.threads = threads;
  opts.cache_capacity = 4096;
  opts.hint_capacity = 4096;
  opts.max_queue_depth = static_cast<std::size_t>(threads) * 64;
  core::PartitionServer server(opts);
  // One exact solve per list seeds the hint store, so degradation has a
  // previous answer to rescale from the first overloaded second.
  for (const LoadModels& m : models) (void)server.serve(m.list, m.base_n);
  // Capacity calibration: answers per second on the phases' request mix
  // with the workers never idle — kInFlight requests always outstanding,
  // fewer than the queue holds and far inside the deadline, so none is
  // shed or degraded.
  std::mt19937_64 rng(kLoadSeed);
  std::deque<std::future<core::ServeResult>> in_flight;
  std::int64_t answered = 0;
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < 0.25) {
    if (in_flight.size() == kInFlight) {
      (void)in_flight.front().get();
      in_flight.pop_front();
      ++answered;
    }
    std::size_t mk = 0;
    in_flight.push_back(server.submit(draw_request(models, zipf_cdf, rng, mk)));
  }
  const double capacity = static_cast<double>(answered) / since(t0);
  for (std::future<core::ServeResult>& f : in_flight) (void)f.get();

  std::vector<DegradedSample> samples;
  const PhaseOutcome sustainable =
      run_phase(server, models, zipf_cdf, 0.8 * capacity, false, samples);
  const PhaseOutcome overload =
      run_phase(server, models, zipf_cdf, 2.0 * capacity, true, samples);

  const auto accounting = [&report](const char* name, const PhaseOutcome& o) {
    const std::int64_t offered = o.after.offered - o.before.offered;
    const std::int64_t admitted = o.after.admitted - o.before.admitted;
    const std::int64_t degraded = o.after.degraded - o.before.degraded;
    const std::int64_t shed = o.after.shed - o.before.shed;
    const std::int64_t resolved = admitted + degraded + shed;
    report.exact(std::string("load accounting, ") + name,
                 util::fmt(offered) + " / " + util::fmt(o.submitted) + " / " +
                     util::fmt(resolved) + " (" + util::fmt(degraded) +
                     " degraded, " + util::fmt(shed) + " shed)",
                 "offered == submitted == admitted+degraded+shed",
                 offered == o.submitted && offered == resolved);
  };
  accounting("sustainable", sustainable);
  accounting("overload", overload);

  // Every sampled degraded answer's bound must dominate its true relative
  // makespan error against a cold exact solve.
  int violations = 0;
  for (const DegradedSample& s : samples) {
    const core::SpeedList& list = models[s.models].list;
    const double exact = core::makespan(
        list, core::partition(list, s.n).distribution);
    core::Distribution got;
    got.counts = s.counts;
    if (s.bound < core::makespan(list, got) / exact - 1.0 - 1e-9) ++violations;
  }
  report.exact("degraded error_bound >= true error",
               util::fmt(samples.size()) + " samples, " +
                   util::fmt(violations) + " violations",
               "0 violations", violations == 0);
  const double goodput = sustainable.goodput > 0.0
                             ? overload.goodput / sustainable.goodput
                             : 0.0;
  report.timing("overload goodput vs sustainable (capacity " +
                    util::fmt(capacity, 0) + " rps)",
                times(goodput), ">= 0.8x", goodput >= 0.8);
  report.timing("sustainable p99 latency",
                util::fmt(sustainable.p99_ms, 2) + " ms", "<= 20 ms",
                sustainable.p99_ms <= kDeadlineMs);
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc == 2 && std::strcmp(argv[1], "--gate") == 0;
  if (argc > 1 && !gate) {
    std::cerr << "usage: gates [--gate]\n";
    return 2;
  }
  Report report;
  throughput_gates(report);
  simd_gates(report);
  load_gates(report);
  report.table.print(std::cout);
  if (report.exact_failed || (gate && report.timing_failed)) return 1;
  if (gate) std::cout << "gate passed\n";
  return 0;
}
