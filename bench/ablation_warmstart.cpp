// Warm-start drift ablation (core::PartitionHint): a Rebalancer-style
// workload where the speed models wobble by ~0.1% per round and n creeps,
// solved cold and with the previous round's slope carried as a hint
// (fingerprint 0, exactly how balance::Rebalancer carries it).
//
// The headline counter is PartitionStats::search_speed_evals — the
// search-phase speed evaluations, excluding the fine-tuning epilogue that
// costs the same ~1.5p evaluations no matter how the search started (see
// the field's doc comment). The warm bracket refines the hinted slope with
// a few secant steps and straddles n about 1/16 of an element either side,
// so a near-exact hint collapses the search to a handful of line solves
// while the cold path pays the full Figure-18 bracket plus bisection.
//
// Written to BENCH_warmstart.json: per-policy cold/warm counter totals,
// wall-clock sweep times, warm-start hit/stale classification, and the
// process metrics registry (partition.warmstart.* included).
//
// `--gate` turns the sweep into a CI check: exit 1 when (a) any round's
// hinted distribution differs from the cold one (bit-identity is the
// contract), (b) the modified policy's search_speed_evals reduction drops
// below 3x, or (c) hinted total speed_evals exceed the cold totals for any
// policy — a hint must never cost more than it saves. All three are pure
// operation counts, deterministic for this fixed workload.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fpm.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace {

using namespace fpm;

constexpr int kRounds = 30;
constexpr int kProcs = 16;
constexpr double kWobble = 0.001;  // 0.1% multiplicative model drift
constexpr std::int64_t kBaseN = 1'000'000;

/// The round-r ensemble: the bench power family with every speed scaled by
/// a slowly oscillating factor, the shape of a rebalancer re-learning its
/// curves from noisy round measurements.
bench::OwnedEnsemble drift_round(int r) {
  bench::OwnedEnsemble e;
  const double wob = 1.0 + kWobble * std::sin(0.7 * static_cast<double>(r));
  for (int i = 0; i < kProcs; ++i) {
    const double d = static_cast<double>(i);
    e.owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        (90.0 + 60.0 * d) * wob, 2e7 * (1.0 + d), 0.8 + 0.3 * (i % 3), 1e9));
  }
  return e;
}

std::int64_t drift_n(int r) { return kBaseN + 37 * r; }

struct Workload {
  std::vector<bench::OwnedEnsemble> rounds;
  std::vector<core::SpeedList> lists;
  std::vector<std::int64_t> ns;
};

Workload make_workload() {
  Workload w;
  for (int r = 0; r < kRounds; ++r) {
    w.rounds.push_back(drift_round(r));
    w.lists.push_back(w.rounds.back().list());
    w.ns.push_back(drift_n(r));
  }
  return w;
}

struct SweepStats {
  std::int64_t search_evals = 0;
  std::int64_t total_evals = 0;
  std::int64_t iterations = 0;
  int hits = 0;
  int stale = 0;
};

struct SweepOutcome {
  SweepStats cold;
  SweepStats warm;
  bool identical = true;
};

void accumulate(SweepStats& s, const core::PartitionStats& stats) {
  s.search_evals += stats.search_speed_evals;
  s.total_evals += stats.speed_evals;
  s.iterations += stats.iterations;
  if (stats.warmstart == core::WarmStart::Hit) ++s.hits;
  if (stats.warmstart == core::WarmStart::Stale) ++s.stale;
}

/// Every round solved both ways so the distributions can be compared
/// element for element; the hint is refreshed from the hinted run, exactly
/// the chain a production caller would build.
SweepOutcome run_drift_sweep(const Workload& w, const std::string& algorithm) {
  SweepOutcome out;
  std::optional<core::PartitionHint> hint;
  for (int r = 0; r < kRounds; ++r) {
    core::PartitionPolicy cold_policy;
    cold_policy.algorithm = algorithm;
    const core::PartitionResult cold =
        core::partition(w.lists[r], w.ns[r], cold_policy);
    core::PartitionPolicy warm_policy = cold_policy;
    warm_policy.hint = hint;
    const core::PartitionResult warm =
        core::partition(w.lists[r], w.ns[r], warm_policy);
    out.identical &= warm.distribution.counts == cold.distribution.counts;
    accumulate(out.cold, cold.stats);
    accumulate(out.warm, warm.stats);
    // Fingerprint 0: the models legitimately change every round, so only
    // the bracket verification decides whether the slope is still good.
    core::PartitionHint next;
    next.slope = warm.stats.final_slope;
    next.n = w.ns[r];
    next.baseline_iterations = cold.stats.iterations;
    hint = next;
  }
  return out;
}

/// One timed pass over the whole sweep (cold or hint-carrying).
double sweep_once(const Workload& w, const std::string& algorithm,
                  bool carry_hint) {
  double acc = 0.0;
  std::optional<core::PartitionHint> hint;
  for (int r = 0; r < kRounds; ++r) {
    core::PartitionPolicy policy;
    policy.algorithm = algorithm;
    if (carry_hint) policy.hint = hint;
    const core::PartitionResult res =
        core::partition(w.lists[r], w.ns[r], policy);
    acc += static_cast<double>(res.distribution.counts[0]);
    if (carry_hint) {
      core::PartitionHint next;
      next.slope = res.stats.final_slope;
      next.n = w.ns[r];
      hint = next;
    }
  }
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

void BM_DriftSweepCold(benchmark::State& state) {
  const Workload w = make_workload();
  for (auto _ : state)
    benchmark::DoNotOptimize(sweep_once(w, core::kAlgorithmModified, false));
}
BENCHMARK(BM_DriftSweepCold)->Unit(benchmark::kMillisecond);

void BM_DriftSweepWarm(benchmark::State& state) {
  const Workload w = make_workload();
  for (auto _ : state)
    benchmark::DoNotOptimize(sweep_once(w, core::kAlgorithmModified, true));
}
BENCHMARK(BM_DriftSweepWarm)->Unit(benchmark::kMillisecond);

double ratio(std::int64_t cold, std::int64_t warm) {
  return warm > 0 ? static_cast<double>(cold) / static_cast<double>(warm)
                  : std::numeric_limits<double>::infinity();
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  std::string out = "BENCH_warmstart.json";
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

  const Workload w = make_workload();
  const std::vector<std::string> policies{core::kAlgorithmModified,
                                          core::kAlgorithmCombined};

  util::Table t("warm-start drift ablation (" + util::fmt(kRounds) +
                    " rounds, p=" + util::fmt(kProcs) + ")",
                {"metric", "cold", "hinted", "improvement"});
  std::ofstream json(out);
  json << "{\n  \"rounds\": " << kRounds << ", \"procs\": " << kProcs
       << ", \"wobble\": " << kWobble << ",\n  \"policies\": [";

  bool ok = true;
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const std::string& alg = policies[pi];
    const SweepOutcome o = run_drift_sweep(w, alg);
    const double t_cold = best_of(5, 1, [&] { return sweep_once(w, alg, false); });
    const double t_warm = best_of(5, 1, [&] { return sweep_once(w, alg, true); });
    const double search_ratio = ratio(o.cold.search_evals, o.warm.search_evals);

    t.add_row({alg + ": search speed evals", util::fmt(o.cold.search_evals),
               util::fmt(o.warm.search_evals),
               util::fmt(search_ratio, 2) + "x"});
    t.add_row({alg + ": total speed evals", util::fmt(o.cold.total_evals),
               util::fmt(o.warm.total_evals),
               util::fmt(ratio(o.cold.total_evals, o.warm.total_evals), 2) +
                   "x"});
    t.add_row({alg + ": iterations", util::fmt(o.cold.iterations),
               util::fmt(o.warm.iterations),
               util::fmt(ratio(o.cold.iterations, o.warm.iterations), 2) +
                   "x"});
    t.add_row({alg + ": sweep wall time (ms)", util::fmt(t_cold * 1e3, 3),
               util::fmt(t_warm * 1e3, 3),
               util::fmt(t_cold / t_warm, 2) + "x"});
    t.add_row({alg + ": warm hits / stale", "-",
               util::fmt(o.warm.hits) + " / " + util::fmt(o.warm.stale),
               o.identical ? "bit-identical" : "MISMATCH"});

    json << (pi ? ", " : "") << "{\"algorithm\": \"" << alg << "\""
         << ", \"cold_search_speed_evals\": " << o.cold.search_evals
         << ", \"warm_search_speed_evals\": " << o.warm.search_evals
         << ", \"search_eval_ratio\": " << search_ratio
         << ", \"cold_speed_evals\": " << o.cold.total_evals
         << ", \"warm_speed_evals\": " << o.warm.total_evals
         << ", \"cold_iterations\": " << o.cold.iterations
         << ", \"warm_iterations\": " << o.warm.iterations
         << ", \"cold_sweep_s\": " << t_cold
         << ", \"warm_sweep_s\": " << t_warm
         << ", \"warm_hits\": " << o.warm.hits
         << ", \"warm_stale\": " << o.warm.stale
         << ", \"bit_identical\": " << (o.identical ? "true" : "false")
         << "}";

    if (!o.identical) {
      std::cerr << "GATE FAIL: " << alg
                << " hinted distribution differs from the cold one\n";
      ok = false;
    }
    if (alg == core::kAlgorithmModified && search_ratio < 3.0) {
      std::cerr << "GATE FAIL: " << alg << " search_speed_evals reduction "
                << util::fmt(search_ratio, 2) << "x < 3x\n";
      ok = false;
    }
    if (o.warm.total_evals > o.cold.total_evals) {
      std::cerr << "GATE FAIL: " << alg << " hinted speed_evals "
                << o.warm.total_evals << " exceed cold " << o.cold.total_evals
                << "\n";
      ok = false;
    }
  }
  json << "],\n  \"metrics\": " << obs::metrics().to_json() << "}\n";
  bench::emit(t);
  std::cout << "wrote " << out << "\n";

  // Bit-identity is the library's contract, not a tunable: fail on a
  // mismatch even without --gate.
  if (!ok && gate) return 1;
  if (gate) std::cout << "gate passed\n";
  return ok ? 0 : 1;
}
