// fpmtool — command-line front end to fpmlib.
//
// Subcommands:
//   save-cluster --out FILE [--preset table1|table2]
//       Write a simulated-cluster definition file (editable; see
//       docs/model-format.md) for one of the paper's testbeds.
//   demo-models --out FILE [--app NAME] [--cluster FILE]
//       Build functional models of a simulated network with the §3.1
//       procedure and save them. Default network: the paper's Table 2
//       (apps mm|lu); with --cluster, any fpm-cluster file and any app
//       registered in it.
//   measure --kernel mm|mm-blocked|lu|cholesky|arrayops --out FILE
//           [--min-elements A] [--max-elements B] [--epsilon E] [--probes K]
//       Measure THIS machine's speed function by really running the kernel,
//       and save the built model.
//   show --models FILE [--at X]
//       Print the models in a file; with --at, the speeds at size X.
//   partition --models FILE --n N [--algorithm ID] [--options "KEY V ..."]
//             [--bounds B1,B2,...] [--trace] [--single-number REF] [--csv]
//             [--repeat R] [--threads T] [--deadline-ms MS] [--priority P]
//             [--metrics]
//       Distribute N elements over the modelled processors and print the
//       result (optionally also the single-number baseline at size REF).
//       --algorithm takes any id from the partitioner registry (see
//       --list-algorithms); --trace dumps every bracket/slope decision of
//       the search. The bounded algorithm derives per-processor capacity
//       bounds from the curves unless --bounds overrides them. With
//       --repeat/--threads the request is served repeatedly through a
//       PartitionServer from T client threads, and the report includes
//       p50/p95/p99 per-request latency (--json additionally emits the
//       summary as one JSON object); --metrics dumps the process metrics
//       registry (serve-latency histogram, cache counters, engine
//       rollups) after the run. --deadline-ms attaches a latency SLO to
//       every request (served via serve_slo: admission control may answer
//       approximately from the hint store, or shed) and --priority
//       low|normal|high sets its class; the report then adds the
//       admitted/degraded/shed outcome mix and deadline misses. --simd
//       pins the vector backend of the batch kernels (auto|off|portable|
//       avx2|avx512|neon; names not compiled in or not supported by this
//       CPU are rejected with exit status 1), overriding the
//       FPM_SIMD_BACKEND environment variable, which is validated just as
//       strictly when the flag is absent; the active backend is echoed in
//       the report and in the --json summary.
//   partition --list-algorithms
//       Print the registered partitioners (id, cost, description).
//   simulate --app NAME --n MATRIX_N [--cluster FILE] [--reference REF_N]
//       Figure-22-style experiment on a simulated network: build models,
//       plan the striped matrix multiplication of an N x N matrix with the
//       functional and single-number models, and print both simulated
//       makespans. Default network: Table 2 with NAME in {mm}.
//   metrics [--format table|json|prometheus]
//       Print the metric catalogue (every metric the library exports, with
//       its kind and meaning), or dump the registry's current values as
//       JSON / Prometheus text.
//
// Exit status: 0 on success, 1 on CLI errors, 2 on runtime failures.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "apps/striped_mm.hpp"
#include "core/model_io.hpp"
#include "linalg/real_source.hpp"
#include "simcluster/presets.hpp"
#include "simcluster/spec_io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace fpm;

int usage() {
  std::cerr
      << "usage:\n"
         "  fpmtool save-cluster --out FILE [--preset table1|table2]\n"
         "  fpmtool demo-models --out FILE [--app NAME] [--cluster FILE]\n"
         "  fpmtool measure --kernel mm|mm-blocked|lu|cholesky|arrayops --out FILE\n"
         "          [--min-elements A] [--max-elements B] [--epsilon E] "
         "[--probes K]\n"
         "  fpmtool show --models FILE [--at X]\n"
         "  fpmtool partition --models FILE --n N [--algorithm ID]\n"
         "          [--options \"KEY VALUE ...\"] [--bounds B1,B2,...] "
         "[--trace]\n"
         "          [--single-number REF] [--csv] [--repeat R] [--threads T]"
         " [--json] [--metrics]\n"
         "          [--deadline-ms MS] [--priority low|normal|high]\n"
         "          [--simd auto|off|portable|avx2|avx512|neon]\n"
         "  fpmtool partition --list-algorithms\n"
         "  fpmtool simulate --app NAME --n MATRIX_N [--cluster FILE] "
         "[--reference REF_N]\n"
         "  fpmtool gen-fleet --p P --out FILE [--seed S] [--points K]\n"
         "          [--mix CONST,LIN,POW,EXP,PIECE,STEP]\n"
         "  fpmtool metrics [--format table|json|prometheus]\n";
  return 1;
}

int cmd_save_cluster(const util::CliArgs& args) {
  const std::string out = args.require("--out");
  const std::string preset = args.get("--preset").value_or("table2");
  if (preset == "table1")
    sim::save_cluster_file(out, sim::table1_machines());
  else if (preset == "table2")
    sim::save_cluster_file(out, sim::table2_machines());
  else
    throw std::invalid_argument("--preset must be table1 or table2");
  std::cout << "wrote cluster definition to " << out << "\n";
  return 0;
}

int cmd_demo_models(const util::CliArgs& args) {
  const std::string out = args.require("--out");
  const std::string app_key = args.get("--app").value_or("mm");
  std::string app = app_key == "lu" ? sim::kLu
                    : app_key == "mm" ? sim::kMatMul
                                      : app_key;

  auto cluster = [&] {
    if (const auto path = args.get("--cluster"))
      return sim::SimulatedCluster(sim::load_cluster_file(*path), 0xf9a2);
    if (app_key != "mm" && app_key != "lu")
      throw std::invalid_argument(
          "--app must be mm or lu for the Table-2 preset (or pass --cluster)");
    return sim::make_table2_cluster();
  }();
  std::vector<core::NamedModel> models;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const sim::MachineSpeed& truth = cluster.ground_truth(i, app);
    sim::MachineMeasurement source(cluster, i, app);
    core::BuilderOptions opts;
    opts.epsilon = 0.08;
    opts.samples_per_point = 5;
    opts.min_size = truth.cache_capacity() * 0.25;
    opts.max_size = truth.max_size();
    const core::BuiltModel built = core::build_speed_band(source, opts);
    models.push_back(core::make_named_model(cluster.machine(i).spec.name,
                                            built.band, opts.epsilon));
    std::cerr << cluster.machine(i).spec.name << ": " << built.probes
              << " probes\n";
  }
  core::save_models_file(out, models);
  std::cout << "wrote " << models.size() << " models to " << out << "\n";
  return 0;
}

int cmd_measure(const util::CliArgs& args) {
  const std::string out = args.require("--out");
  const std::string kernel_key = args.require("--kernel");
  linalg::Kernel kernel;
  if (kernel_key == "mm")
    kernel = linalg::Kernel::MatMulNaive;
  else if (kernel_key == "mm-blocked")
    kernel = linalg::Kernel::MatMulBlocked;
  else if (kernel_key == "lu")
    kernel = linalg::Kernel::LuFactor;
  else if (kernel_key == "cholesky")
    kernel = linalg::Kernel::Cholesky;
  else if (kernel_key == "arrayops")
    kernel = linalg::Kernel::ArrayOps;
  else
    throw std::invalid_argument("unknown kernel '" + kernel_key + "'");

  linalg::RealKernelSource source(kernel);
  core::BuilderOptions opts;
  opts.min_size = args.number("--min-elements", 3.0 * 48 * 48);
  opts.max_size = args.number("--max-elements", 3.0 * 600 * 600);
  opts.epsilon = args.number("--epsilon", 0.10);
  opts.max_probes = static_cast<int>(args.number("--probes", 24));
  std::cerr << "measuring " << source.name() << " over ["
            << opts.min_size << ", " << opts.max_size << "] elements...\n";
  const core::BuiltModel built = core::build_speed_band(source, opts);
  core::save_models_file(
      out, {core::make_named_model(source.name(), built.band, opts.epsilon)});
  std::cout << "wrote model (" << built.probes << " probes) to " << out
            << "\n";
  return 0;
}

int cmd_show(const util::CliArgs& args) {
  const auto models = core::load_models_file(args.require("--models"));
  const auto at = args.get("--at");
  util::Table t("models",
                at ? std::vector<std::string>{"name", "points", "max_size",
                                              "speed_at_" + *at}
                   : std::vector<std::string>{"name", "points", "max_size",
                                              "peak_speed"});
  for (const core::NamedModel& m : models) {
    const core::PiecewiseLinearSpeed curve = m.curve();
    double shown;
    if (at) {
      shown = curve.speed(util::parse_double(*at, "flag --at"));
    } else {
      shown = 0.0;
      for (const core::SpeedPoint& p : curve.points())
        shown = std::max(shown, p.speed);
    }
    t.add_row({m.name, util::fmt(curve.points().size()),
               util::fmt(curve.max_size(), 0), util::fmt(shown, 2)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_list_algorithms() {
  util::Table t("registered partitioners",
                {"id", "cost (intersection solves)", "summary"});
  for (const core::PartitionerInfo& info :
       core::partitioner_registry().entries())
    t.add_row({info.id, info.complexity, info.summary});
  t.print(std::cout);
  return 0;
}

/// Splits an --options string ("stall_window 4 bisect_angles true") into
/// the key/value tokens parse_policy expects.
std::vector<std::string> split_tokens(const std::string& text) {
  std::istringstream ss(text);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  return tokens;
}

/// Parses a --bounds CSV ("100,200,300") into per-processor bounds.
std::vector<std::int64_t> parse_bounds_csv(const std::string& text) {
  std::vector<std::int64_t> bounds;
  std::istringstream ss(text);
  std::string field;
  while (std::getline(ss, field, ',')) {
    try {
      std::size_t used = 0;
      bounds.push_back(std::stoll(field, &used));
      if (used != field.size()) throw std::invalid_argument(field);
    } catch (const std::exception&) {
      throw std::invalid_argument("--bounds: bad entry '" + field + "'");
    }
  }
  if (bounds.empty()) throw std::invalid_argument("--bounds: empty list");
  return bounds;
}

/// Human scale for a histogram bucket bound in seconds.
std::string fmt_seconds(double s) {
  if (s < 1e-3) return util::fmt(s * 1e6, 1) + " us";
  if (s < 1.0) return util::fmt(s * 1e3, 2) + " ms";
  return util::fmt(s, 3) + " s";
}

/// Dumps the process metrics registry: one table for counters and gauges,
/// one per non-empty histogram (zero buckets skipped for readability).
void print_metrics_report(std::ostream& os) {
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  util::Table scalars("metrics: counters & gauges", {"name", "value"});
  for (const auto& [name, value] : snap.counters)
    scalars.add_row({name, util::fmt(static_cast<long long>(value))});
  for (const auto& [name, value] : snap.gauges)
    scalars.add_row({name, util::fmt(static_cast<long long>(value))});
  scalars.print(os);
  for (const auto& [name, h] : snap.histograms) {
    if (h.count == 0) continue;
    util::Table t("histogram: " + name, {"le", "count"});
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      t.add_row({i < h.bounds.size() ? fmt_seconds(h.bounds[i]) : "+Inf",
                 util::fmt(static_cast<long long>(h.counts[i]))});
    }
    t.print(os);
    os << "  count " << h.count << ", mean "
       << fmt_seconds(h.sum / static_cast<double>(h.count)) << "\n";
  }
}

int cmd_metrics(const util::CliArgs& args) {
  const std::string format = args.get("--format").value_or("table");
  if (format == "json") {
    std::cout << obs::metrics().to_json() << "\n";
    return 0;
  }
  if (format == "prometheus") {
    std::cout << obs::metrics().to_prometheus();
    return 0;
  }
  if (format != "table")
    throw std::invalid_argument("--format must be table, json, or prometheus");
  util::Table t("metric catalogue", {"name", "kind", "measures"});
  for (const obs::MetricInfo& info : obs::metric_catalogue())
    t.add_row({info.name, info.kind, info.help});
  t.print(std::cout);
  return 0;
}

int cmd_partition(const util::CliArgs& args) {
  if (args.flag("--list-algorithms")) return cmd_list_algorithms();
  const auto models = core::load_models_file(args.require("--models"));
  if (models.empty()) throw std::runtime_error("no models in file");
  // Strict parse: "100abc" or "12.7" must be a CLI error, not a silent
  // truncation that partitions the wrong n.
  const std::int64_t n = util::parse_int64(args.require("--n"), "--n");
  const std::string algo = args.get("--algorithm").value_or(
      core::kAlgorithmCombined);
  if (!core::partitioner_registry().contains(algo))
    throw std::invalid_argument(
        "--algorithm must be one of: " +
        core::partitioner_registry().joined_ids());

  std::vector<core::PiecewiseLinearSpeed> curves;
  curves.reserve(models.size());
  for (const core::NamedModel& m : models) curves.push_back(m.curve());
  core::SpeedList speeds;
  for (const auto& c : curves) speeds.push_back(&c);

  core::PartitionPolicy policy = core::parse_policy(
      algo, split_tokens(args.get("--options").value_or("")));
  if (const auto bounds = args.get("--bounds"))
    policy.bounds = parse_bounds_csv(*bounds);

  // SIMD backend selection for the batch kernels: --simd wins (an explicit
  // force_simd_backend call overrides the environment the library reads at
  // its first sweep); with the flag absent, an FPM_SIMD_BACKEND environment
  // value is validated here so a typo fails the run loudly (the library
  // alone would silently ignore it and keep auto dispatch). Bad
  // names/unsupported ISAs throw std::invalid_argument -> exit status 1.
  if (const auto simd = args.get("--simd"))
    core::force_simd_backend(*simd);
  else if (const char* env = std::getenv("FPM_SIMD_BACKEND"))
    core::force_simd_backend(env);
  core::StepTrace trace;
  if (args.flag("--trace")) policy.observer = trace.observer();

  const std::int64_t repeat = args.integer("--repeat", 1);
  const auto threads = static_cast<unsigned>(args.integer("--threads", 0));
  if (repeat < 1) throw std::invalid_argument("--repeat must be >= 1");
  if (args.flag("--trace") && (repeat > 1 || threads > 0))
    throw std::invalid_argument(
        "--trace cannot be combined with --repeat/--threads (the trace "
        "would interleave across requests)");

  core::Slo slo;
  if (const auto dl = args.get("--deadline-ms"))
    slo.deadline_s = util::parse_double(*dl, "flag --deadline-ms") * 1e-3;
  if (const auto prio = args.get("--priority")) {
    if (*prio == "low")
      slo.priority = core::Priority::Low;
    else if (*prio == "normal")
      slo.priority = core::Priority::Normal;
    else if (*prio == "high")
      slo.priority = core::Priority::High;
    else
      throw std::invalid_argument("--priority must be low, normal, or high");
  }
  if (slo.has_deadline() && args.flag("--trace"))
    throw std::invalid_argument(
        "--trace cannot be combined with --deadline-ms (observer-carrying "
        "requests are never degraded, so the SLO path adds nothing)");

  core::PartitionResult result;
  if (slo.has_deadline() && repeat == 1 && threads == 0) {
    // One SLO-aware request: report the outcome explicitly; a shed request
    // has no partition to print.
    core::PartitionServer server({.threads = 1});
    const core::ServeResult r = server.serve_slo(speeds, n, policy, slo);
    std::cout << "slo: status=" << core::to_string(r.status)
              << " shed_reason=" << core::to_string(r.shed_reason)
              << " latency=" << util::fmt(r.latency_s * 1e3, 4)
              << " ms deadline_met=" << (r.deadline_met ? "yes" : "no");
    if (r.status == core::ServeStatus::Degraded)
      std::cout << " error_bound=" << util::fmt(r.error_bound, 6);
    std::cout << "\n";
    if (!r.answered()) {
      std::cout << "request shed (" << core::to_string(r.shed_reason)
                << "): no partition to print\n";
      return 0;
    }
    result = r.result;
  } else if (repeat > 1 || threads > 0) {
    // Throughput mode: hammer a shared PartitionServer with the same
    // request from T client threads, timing every serve() call so the
    // report can show latency percentiles, not just the aggregate rate.
    // The printed partition is the first answer (all of them are
    // identical).
    const unsigned clients = threads == 0 ? 1 : threads;
    core::ServerOptions sopts;
    sopts.threads = 1;  // serve() runs on the client threads; pool is idle
    core::PartitionServer server(sopts);
    std::vector<double> latency_ms(static_cast<std::size_t>(repeat), 0.0);
    core::PartitionResult first_result;
    std::atomic<bool> have_first{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    util::Timer timer;
    {
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (unsigned t = 0; t < clients; ++t)
        pool.emplace_back([&, t] {
          try {
            for (auto i = static_cast<std::size_t>(t);
                 i < latency_ms.size(); i += clients) {
              util::Timer one;
              if (slo.has_deadline()) {
                core::ServeResult r = server.serve_slo(speeds, n, policy, slo);
                latency_ms[i] = r.latency_s * 1e3;
                if (r.answered() && !have_first.exchange(true)) {
                  std::lock_guard<std::mutex> lock(error_mu);
                  first_result = std::move(r.result);
                }
              } else {
                core::PartitionResult r = server.serve(speeds, n, policy);
                latency_ms[i] = one.seconds() * 1e3;
                if (i == 0) {
                  have_first.store(true);
                  first_result = std::move(r);
                }
              }
            }
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        });
      for (std::thread& th : pool) th.join();
    }
    if (first_error) std::rethrow_exception(first_error);
    const double seconds = timer.seconds();
    if (slo.has_deadline()) {
      const core::SloStats ss = server.slo_stats();
      std::cout << "slo (" << core::to_string(slo.priority) << ", "
                << util::fmt(slo.deadline_s * 1e3, 1)
                << " ms deadline): offered=" << ss.offered
                << " admitted=" << ss.admitted << " degraded=" << ss.degraded
                << " shed=" << ss.shed << " deadline_misses="
                << ss.deadline_misses << "\n";
      if (!have_first.load()) {
        std::cout << "every request was shed: no partition to print\n";
        return 0;
      }
    }
    result = std::move(first_result);
    const core::CacheStats cs = server.cache_stats();
    const double total =
        static_cast<double>(cs.hits + cs.misses + cs.uncacheable);
    const double rate =
        static_cast<double>(repeat) / std::max(seconds, 1e-12);
    const double p50 = util::percentile(latency_ms, 50.0);
    const double p95 = util::percentile(latency_ms, 95.0);
    const double p99 = util::percentile(latency_ms, 99.0);
    std::cout << "served " << repeat << " requests on " << clients
              << " client thread(s) in " << util::fmt(seconds * 1e3, 2)
              << " ms (" << util::fmt(rate, 0)
              << " req/s, cache hit rate "
              << util::fmt(total > 0.0
                               ? 100.0 * static_cast<double>(cs.hits) / total
                               : 0.0,
                           1)
              << "%)\n";
    std::cout << "cache: " << cs.hits << " hits, " << cs.misses
              << " misses, " << cs.uncacheable << " uncacheable, "
              << cs.evictions << " evictions, " << cs.entries
              << " entries\n";
    util::Table lat("serve latency over " + std::to_string(repeat) +
                        " requests (ms)",
                    {"p50", "p95", "p99", "min", "max", "mean"});
    lat.add_row({util::fmt(p50, 4), util::fmt(p95, 4), util::fmt(p99, 4),
                 util::fmt(util::min_of(latency_ms), 4),
                 util::fmt(util::max_of(latency_ms), 4),
                 util::fmt(util::mean(latency_ms), 4)});
    if (args.flag("--csv"))
      lat.print_csv(std::cout);
    else
      lat.print(std::cout);
    if (args.flag("--json"))
      std::cout << "{\"requests\":" << repeat << ",\"threads\":" << clients
                << ",\"seconds\":" << util::fmt(seconds, 6)
                << ",\"req_per_s\":" << util::fmt(rate, 1)
                << ",\"simd_backend\":\""
                << core::to_string(core::active_simd_backend())
                << "\",\"latency_ms\":{\"p50\":" << util::fmt(p50, 6)
                << ",\"p95\":" << util::fmt(p95, 6) << ",\"p99\":"
                << util::fmt(p99, 6) << ",\"min\":"
                << util::fmt(util::min_of(latency_ms), 6) << ",\"max\":"
                << util::fmt(util::max_of(latency_ms), 6) << ",\"mean\":"
                << util::fmt(util::mean(latency_ms), 6) << "}}\n";
  } else {
    result = core::partition(speeds, n, policy);
  }

  std::optional<core::Distribution> baseline;
  if (const auto ref = args.get("--single-number"))
    baseline = core::partition_single_number_at(
        speeds, n, util::parse_double(*ref, "flag --single-number"));

  util::Table t("partition of " + std::to_string(n) + " elements (" +
                    result.stats.algorithm + ")",
                baseline ? std::vector<std::string>{"processor", "elements",
                                                    "time", "single_number"}
                         : std::vector<std::string>{"processor", "elements",
                                                    "time"});
  const auto times = core::execution_times(speeds, result.distribution);
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::vector<std::string> row{models[i].name,
                                 util::fmt(result.distribution.counts[i]),
                                 util::fmt(times[i], 4)};
    if (baseline) row.push_back(util::fmt(baseline->counts[i]));
    t.add_row(row);
  }
  if (args.flag("--csv"))
    t.print_csv(std::cout);
  else
    t.print(std::cout);
  std::cout << "makespan: " << core::makespan(speeds, result.distribution)
            << " (" << result.stats.iterations << " iterations, "
            << result.stats.speed_evals << " speed evals, "
            << result.stats.intersect_solves << " intersection solves)\n";
  std::cout << "simd backend: " << core::to_string(core::active_simd_backend())
            << "\n";
  if (baseline)
    std::cout << "single-number makespan: "
              << core::makespan(speeds, *baseline) << "\n";

  if (args.flag("--trace")) {
    util::Table steps("search trace (" + result.stats.algorithm + ")",
                      {"step", "kind", "slope", "bracket_lo", "bracket_hi",
                       "interior", "kept"});
    for (const core::SearchStep& s : trace.steps())
      steps.add_row({util::fmt(s.iteration), core::to_string(s.kind),
                     util::fmt(s.slope, 6), util::fmt(s.lo_slope, 6),
                     util::fmt(s.hi_slope, 6), util::fmt(s.interior),
                     s.kind == core::SearchStepKind::Bracket
                         ? std::string("-")
                         : std::string(s.kept_low ? "low" : "high")});
    steps.print(std::cout);
    if (trace.truncated())
      std::cout << "trace truncated; counters cover the full search\n";
    std::cout << "trace: " << trace.search_steps() << " search steps, "
              << trace.brackets() << " bracket(s)\n";
    if (trace.search_steps() != result.stats.iterations)
      std::cout << "warning: trace step count disagrees with "
                   "stats.iterations ("
                << result.stats.iterations << ")\n";
  }
  if (args.flag("--metrics")) print_metrics_report(std::cout);
  return 0;
}

}  // namespace

int cmd_simulate(const util::CliArgs& args) {
  const std::string app = args.get("--app").value_or(sim::kMatMul);
  const auto n = static_cast<std::int64_t>(args.number("--n", 20000));
  const auto ref = static_cast<std::int64_t>(args.number("--reference", 500));
  // The spec file's top-level `policy` line selects the partitioner the
  // functional plan runs with; preset clusters use the default policy.
  core::PartitionPolicy policy;
  auto cluster = [&] {
    if (const auto path = args.get("--cluster")) {
      sim::ClusterSpec spec = sim::load_cluster_spec_file(*path);
      policy = std::move(spec.policy);
      return sim::SimulatedCluster(std::move(spec.machines), 0xf9a2);
    }
    return sim::make_table2_cluster();
  }();

  std::cerr << "building functional models...\n";
  const sim::ClusterModels models = sim::build_cluster_models(cluster, app);
  const auto functional = apps::plan_striped_mm(
      models.list(), n, apps::ModelKind::Functional, ref, policy);
  const auto single = apps::plan_striped_mm(
      models.list(), n, apps::ModelKind::SingleNumber, ref);

  util::Table t("striped MM, n = " + std::to_string(n),
                {"machine", "functional_rows", "single_number_rows"});
  for (std::size_t i = 0; i < cluster.size(); ++i)
    t.add_row({cluster.machine(i).spec.name, util::fmt(functional.rows[i]),
               util::fmt(single.rows[i])});
  t.print(std::cout);
  const double tf =
      apps::simulate_striped_mm_seconds(cluster, app, functional, n, false);
  const double ts =
      apps::simulate_striped_mm_seconds(cluster, app, single, n, false);
  std::cout << "simulated makespan, functional    : " << util::fmt(tf, 1)
            << " s\n";
  std::cout << "simulated makespan, single-number : " << util::fmt(ts, 1)
            << " s  (speedup " << util::fmt(ts / tf, 2) << "x)\n";
  return 0;
}

/// Samples a synthetic fleet (core/fleetgen.hpp) into piecewise-linear
/// models and writes them in the fpm-model format, so thousand-rank
/// workloads can be driven through `partition --models` without hand-written
/// spec files. The sampling grid is geometric up to each machine's
/// max_size; the saved curve is the analytic model within interpolation
/// error.
int cmd_gen_fleet(const util::CliArgs& args) {
  const auto p = static_cast<std::size_t>(args.integer("--p", 0));
  if (p == 0) throw std::invalid_argument("gen-fleet: --p must be >= 1");
  const std::string out = args.require("--out");
  const auto seed = static_cast<std::uint64_t>(args.integer("--seed", 42));
  const auto points = static_cast<std::size_t>(args.integer("--points", 24));
  if (points < 2)
    throw std::invalid_argument("gen-fleet: --points must be >= 2");

  core::FleetMix mix;
  if (const auto spec = args.get("--mix")) {
    double* const weights[6] = {&mix.constant, &mix.linear_decay,
                                &mix.power_decay, &mix.exp_decay,
                                &mix.piecewise, &mix.stepped};
    std::stringstream ss(*spec);
    std::string tok;
    std::size_t i = 0;
    while (std::getline(ss, tok, ',')) {
      if (i >= 6)
        throw std::invalid_argument("gen-fleet: --mix takes 6 weights");
      *weights[i++] = util::parse_double(tok, "--mix");
    }
    if (i != 6)
      throw std::invalid_argument("gen-fleet: --mix takes 6 weights");
  }

  const core::SyntheticFleet fleet = core::make_synthetic_fleet(p, seed, mix);
  std::vector<core::NamedModel> models;
  models.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    const core::SpeedFunction& f = *fleet.owned[i];
    const double hi = f.max_size();
    const double lo = std::max(1.0, hi * 1e-5);
    std::vector<core::SpeedPoint> pts;
    pts.reserve(points);
    for (std::size_t j = 0; j < points; ++j) {
      const double t =
          static_cast<double>(j) / static_cast<double>(points - 1);
      const double x = lo * std::pow(hi / lo, t);
      pts.push_back({x, f.speed(x)});
    }
    std::string name = "synth-" + std::to_string(i);
    models.push_back(core::make_named_model(
        std::move(name), core::PiecewiseLinearSpeed(std::move(pts))));
  }
  core::save_models_file(out, models);
  std::cout << "wrote " << models.size() << " synthetic models to " << out
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const util::CliArgs args(
        argc, argv,
        {"--csv", "--trace", "--list-algorithms", "--metrics", "--json"});
    if (command == "save-cluster") return cmd_save_cluster(args);
    if (command == "demo-models") return cmd_demo_models(args);
    if (command == "measure") return cmd_measure(args);
    if (command == "show") return cmd_show(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "gen-fleet") return cmd_gen_fleet(args);
    if (command == "metrics") return cmd_metrics(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const std::invalid_argument& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 1;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 2;
  }
}
