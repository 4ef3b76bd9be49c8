// The five workloads of the repository benchmark. README.md records why
// each one was chosen and which layers it stresses; the comment on each
// runner states its loop, its inputs and what it verifies.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "apps/vgb.hpp"
#include "core/fleetgen.hpp"
#include "core/policy.hpp"
#include "perf.hpp"
#include "simcluster/presets.hpp"

namespace fpm::perf {
namespace {

/// Set-up — building the inputs and the server, then a warm-up that lets
/// caches fill and lazy initialization finish before the measured run — is
/// repeated this many times per run; setup_s is the median CPU time.
constexpr int kSetupReps = 9;
/// The model populations are fixed; --seed draws the traffic over them
/// (which model list, which n, arrival times, priorities). Per-seed fleets
/// would make a run's cost depend on which few fleets the seed drew: their
/// solve costs differ by up to 2x, far beyond the benchmark's bounds.
constexpr std::uint64_t kSolveFleetSeed = 1;
constexpr std::uint64_t kServeFleetSeed = 2004;
/// Open-loop request deadline (the loadgen SLO mix).
constexpr double kDeadlineS = 0.020;
/// Most answers re-checked after a run, per kind of check.
constexpr std::size_t kMaxChecks = 64;

/// Owning model lists: `count` synthetic fleets of p machines (default
/// family mix), fleet k generated from seed base + k.
struct Fleets {
  std::vector<core::SyntheticFleet> owned;
  std::vector<core::SpeedList> lists;
};

Fleets make_fleets(std::size_t count, std::size_t p, std::uint64_t base) {
  Fleets f;
  for (std::size_t k = 0; k < count; ++k) {
    f.owned.push_back(core::make_synthetic_fleet(p, base + k));
    f.lists.push_back(f.owned.back().list());
  }
  return f;
}

/// Zipf CDF over ranks 0..count-1 with exponent s.
std::vector<double> zipf_cdf(std::size_t count, double s) {
  std::vector<double> cdf(count);
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::size_t zipf_draw(const std::vector<double>& cdf, double u) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin()),
      cdf.size() - 1);
}

Clock::duration seconds_dur(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Starts the measured run at `start`: its windows, with one log per client
/// in `live`.
Windows start_run(const Options& options, Clock::time_point start,
                  std::size_t clients, Live& live) {
  const Windows windows(start, options.seconds);
  live.windows.assign(clients, WindowLog(windows));
  return windows;
}

/// Closed loop on the calling thread over the run's windows: request(i) is
/// the real call and is timed; verify(i, answer) runs after the clock
/// stopped. A request is filed under the window it completed in. The lag
/// is the client's own time between one answer and the next call. A
/// request that throws counts as failed and unanswered. One client passes
/// `cpu_marks` and samples the process CPU time at the window boundaries.
template <typename Request, typename Verify>
void closed_loop(const Windows& windows, Tracer* tracer, Live& live,
                 WindowLog& log, std::vector<double>* cpu_marks,
                 RunResult& result, const Request& request,
                 const Verify& verify) {
  const Clock::time_point stop = windows.boundary(windows.count());
  Clock::time_point due = windows.boundary(0);
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (cpu_marks != nullptr) mark_cpu(windows, t0, *cpu_marks);
    if (t0 >= stop) break;
    ++result.attempted;
    live.lag.add_ms(1e3 * seconds_between(due, t0));
    try {
      auto answer = request(i);
      const Clock::time_point t1 = Clock::now();
      const double ms = 1e3 * seconds_between(t0, t1);
      live.latency.add_ms(ms);
      log.record(t1, true, true, ms);
      if (tracer != nullptr) tracer->record(SpanName::Request, t0, t1, i);
      ++live.exact;
      due = t1;
      verify(i, answer);
    } catch (const std::exception& e) {
      result.fail(std::string("request threw: ") + e.what());
      due = Clock::now();
      log.record(due, false, false, std::nan(""));
    }
  }
  log.close();
}

/// Checks the server's SLO accounting over one window: offered == admitted
/// + degraded + shed, with offered equal to what the clients submitted and
/// degraded/shed equal to what they received.
void check_accounting(const core::SloStats& before, const core::SloStats& after,
                      std::int64_t submitted, const Live& live,
                      RunResult& result) {
  const std::int64_t offered = after.offered - before.offered;
  const std::int64_t admitted = after.admitted - before.admitted;
  const std::int64_t degraded = after.degraded - before.degraded;
  const std::int64_t shed = after.shed - before.shed;
  if (offered != submitted || offered != admitted + degraded + shed ||
      degraded != live.degraded || shed != live.shed)
    result.problem("SLO accounting: offered " + std::to_string(offered) +
                   ", submitted " + std::to_string(submitted) +
                   ", admitted " + std::to_string(admitted) + ", degraded " +
                   std::to_string(degraded) + " (seen " +
                   std::to_string(live.degraded) + "), shed " +
                   std::to_string(shed) + " (seen " +
                   std::to_string(live.shed) + ")");
}

/// An answer kept for checking after the timed window.
struct Answer {
  std::size_t fleet;
  std::int64_t n;
  std::vector<std::int64_t> counts;
  double bound = 0.0;  ///< degraded answers only
};

// ---------------------------------------------------------------------------
// solve_p4096: direct cold core::partition() at p = 4096
// ---------------------------------------------------------------------------

struct SolveState {
  Fleets fleets;
  std::vector<std::int64_t> ns;
};

/// Closed loop, one caller (plus the library's lane pool): request i solves
/// fleet i % 8 at n = ns[i % 1024] = 1e9 + a seeded drift. Every answer
/// sums to n; a seeded 1-in-64 sample is checked against exact_optimum.
RunResult run_solve_p4096(const Options& options) {
  constexpr std::size_t kFleets = 8, kP = 4096, kPool = 1024;
  RunResult result;
  Live live;
  const auto state = build_median(
      kSetupReps,
      [&] {
        auto s = std::make_unique<SolveState>();
        s->fleets = make_fleets(kFleets, kP, kSolveFleetSeed);
        std::mt19937_64 rng(mix64(options.seed));
        for (std::size_t i = 0; i < kPool; ++i)
          s->ns.push_back(1'000'000'000 +
                          static_cast<std::int64_t>(rng() % 100'000'000));
        // Warm-up: one solve per fleet (the first also starts the lane pool).
        for (std::size_t k = 0; k < kFleets; ++k)
          (void)core::partition(s->fleets.lists[k], s->ns[k]);
        return s;
      },
      live.setup_s);
  const auto input = [&](std::uint64_t i) {
    return std::pair{i % kFleets, state->ns[i % kPool]};
  };

  Tracer tracer(Clock::now());
  std::vector<Answer> sampled;
  const ObsWindow deltas;
  const Windows windows = start_run(options, Clock::now(), 1, live);
  closed_loop(
      windows, options.trace ? &tracer : nullptr, live, live.windows[0],
      &live.cpu_marks, result,
      [&](std::uint64_t i) {
        const auto [k, n] = input(i);
        return core::partition(state->fleets.lists[k], n);
      },
      [&](std::uint64_t i, const core::PartitionResult& r) {
        const auto [k, n] = input(i);
        check_answer(r.distribution, kP, n, result, "solve");
        // exact_optimum at p = 4096 costs ~10 solves: keep the sample small.
        if (exactness_sampled(options.seed, i) && sampled.size() < 8)
          sampled.push_back({k, n, r.distribution.counts});
      });
  deltas.close(live);

  for (const Answer& a : sampled)
    check_near_optimal(state->fleets.lists[a.fleet], a.n, {a.counts}, result);

  LayerCounts counts;
  if (options.trace) {
    core::PartitionCache cache(4096, 16);
    std::vector<Problem> problems;
    for (std::uint64_t i = 0; i < kReplayWindow; i += kReplayEvery) {
      const auto [k, n] = input(i);
      replay_layers(tracer, i, state->fleets.lists[k], n, cache, counts,
                    result);
      problems.push_back({&state->fleets.lists[k], n});
    }
    replay_through_server(tracer, problems, live, result);
  }
  const Tracer* tracers[] = {&tracer};
  report(options, live, counts, merge(tracers), result);
  return result;
}

// ---------------------------------------------------------------------------
// vgb_lu: the paper's LU application on the Table-2 cluster
// ---------------------------------------------------------------------------

struct VgbState {
  sim::ClusterModels models;
  core::SpeedList list;
  std::vector<std::int64_t> ns;
};

/// Closed loop, one thread: request i computes the Variable Group Block
/// distribution (block 32) for n = ns[i % 1024], uniform in
/// [16000, 32000], over models built by the §3.1 procedure on the Table-2
/// cluster (the model build is set-up). Every answer keeps the
/// owner/group-sum invariants; a seeded 1-in-64 sample has its first
/// group's solve checked against exact_optimum.
RunResult run_vgb_lu(const Options& options) {
  constexpr std::size_t kPool = 1024;
  constexpr std::int64_t kBlock = 32;
  RunResult result;
  Live live;
  apps::VgbOptions vgb;
  vgb.block = kBlock;
  const auto state = build_median(
      kSetupReps,
      [&] {
        auto s = std::make_unique<VgbState>();
        sim::SimulatedCluster cluster = sim::make_table2_cluster();
        s->models = sim::build_cluster_models(cluster, sim::kLu);
        s->list = s->models.list();
        std::mt19937_64 rng(mix64(options.seed));
        for (std::size_t i = 0; i < kPool; ++i)
          s->ns.push_back(16000 + static_cast<std::int64_t>(rng() % 16001));
        for (std::size_t i = 0; i < 64; ++i)  // warm-up
          (void)apps::variable_group_block(s->list, s->ns[i], vgb);
        return s;
      },
      live.setup_s);
  const core::SpeedList& models = state->list;
  const int p = static_cast<int>(models.size());
  const auto n_of = [&](std::uint64_t i) { return state->ns[i % kPool]; };

  Tracer tracer(Clock::now());
  std::vector<std::int64_t> sampled;
  const ObsWindow deltas;
  const Windows windows = start_run(options, Clock::now(), 1, live);
  closed_loop(
      windows, options.trace ? &tracer : nullptr, live, live.windows[0],
      &live.cpu_marks, result,
      [&](std::uint64_t i) {
        return apps::variable_group_block(models, n_of(i), vgb);
      },
      [&](std::uint64_t i, const apps::VgbDistribution& d) {
        const std::int64_t n = n_of(i);
        std::int64_t group_sum = 0;
        for (const std::int64_t g : d.group_sizes) group_sum += g;
        const bool owners_ok = std::all_of(
            d.block_owner.begin(), d.block_owner.end(),
            [&](int o) { return o >= 0 && o < p; });
        if (d.total_blocks() != (n + kBlock - 1) / kBlock ||
            group_sum != d.total_blocks() || !owners_ok)
          result.fail("VGB invariants broken for n = " + std::to_string(n));
        if (exactness_sampled(options.seed, i) && sampled.size() < kMaxChecks)
          sampled.push_back(n);
      });
  deltas.close(live);

  for (const std::int64_t n : sampled) {
    const core::PartitionResult first = core::partition(models, n * n);
    if (check_answer(first.distribution, models.size(), n * n, result,
                     "VGB group solve"))
      check_near_optimal(models, n * n, first.distribution, result);
  }

  LayerCounts counts;
  if (options.trace) {
    core::PartitionCache cache(4096, 16);
    std::vector<std::int64_t> elements;
    for (std::uint64_t i = 0; i < kReplayWindow; i += kReplayEvery) {
      const std::int64_t n = n_of(i);
      // The VGB call, then each of its group solves replayed on its own:
      // group g partitions the m^2 elements of the m columns still left.
      Clock::time_point t0 = Clock::now();
      const apps::VgbDistribution d =
          apps::variable_group_block(models, n, vgb);
      Clock::time_point t1 = Clock::now();
      tracer.record(SpanName::Vgb, t0, t1, i);
      const double vgb_s = seconds_between(t0, t1);
      double solves_s = 0.0;
      std::int64_t remaining = n;
      for (const std::int64_t g : d.group_sizes) {
        t0 = Clock::now();
        (void)core::partition(models, remaining * remaining);
        t1 = Clock::now();
        tracer.record(SpanName::VgbGroupSolve, t0, t1, i);
        solves_s += seconds_between(t0, t1);
        remaining -= std::min(remaining, g * kBlock);
      }
      live.vgb_groups += static_cast<double>(d.group_sizes.size());
      live.vgb_partition_share.push_back(solves_s / vgb_s);
      replay_layers(tracer, i, models, n * n, cache, counts, result);
      elements.push_back(n * n);
    }
    std::vector<Problem> problems;
    for (const std::int64_t e : elements) problems.push_back({&models, e});
    replay_through_server(tracer, problems, live, result);
  }
  const Tracer* tracers[] = {&tracer};
  report(options, live, counts, merge(tracers), result);
  return result;
}

// ---------------------------------------------------------------------------
// Served workloads: shared fleets and server set-up
// ---------------------------------------------------------------------------

/// p = 64 fleets behind a PartitionServer; `problems` lists every (fleet,
/// n) the set-up served once.
struct ServeState {
  Fleets fleets;
  std::vector<std::pair<std::size_t, std::int64_t>> problems;
  std::vector<double> cdf;
  std::unique_ptr<core::PartitionServer> server;
};

/// Fleet k's problem sizes are base(k) + 1e6 * j for j < sizes.
std::int64_t base_n(std::size_t k) {
  return 1'000'000 + 7919 * static_cast<std::int64_t>(k);
}

std::unique_ptr<ServeState> build_served(std::size_t fleets, std::size_t sizes,
                                         const core::ServerOptions& server) {
  auto s = std::make_unique<ServeState>();
  s->fleets = make_fleets(fleets, 64, kServeFleetSeed);
  s->cdf = zipf_cdf(fleets * sizes, 1.1);
  for (std::size_t k = 0; k < fleets; ++k)
    for (std::size_t j = 0; j < sizes; ++j)
      s->problems.emplace_back(
          k, base_n(k) + 1'000'000 * static_cast<std::int64_t>(j));
  s->server = std::make_unique<core::PartitionServer>(server);
  for (const auto& [k, n] : s->problems)
    (void)s->server->serve_slo(s->fleets.lists[k], n, {}, core::Slo{});
  return s;
}

// ---------------------------------------------------------------------------
// serve_hit: every request a cache hit
// ---------------------------------------------------------------------------

/// Closed loop, two client threads, one server worker, cache 4096: each
/// request is serve_slo() with no deadline for one of 64 fleets x 8 sizes,
/// drawn Zipf(1.1) over a seeded ranking of the 512 keys. Set-up serves
/// every key once, so every timed request hits. Every answer sums to n;
/// a seeded 1-in-64 sample of hits must be bit-identical to a direct
/// partition() and near the exact optimum.
RunResult run_serve_hit(const Options& options) {
  constexpr int kClients = 2;
  RunResult result;
  Live live;
  core::ServerOptions server_options;
  server_options.threads = 1;
  server_options.cache_capacity = 4096;
  std::vector<std::size_t> rank;  // Zipf rank -> problem index
  const auto state = build_median(
      kSetupReps,
      [&] {
        auto s = build_served(64, 8, server_options);
        for (std::size_t i = 0; i < 1000; ++i) {  // warm-up
          const auto& [k, n] = s->problems[i % s->problems.size()];
          (void)s->server->serve_slo(s->fleets.lists[k], n, {}, core::Slo{});
        }
        return s;
      },
      live.setup_s);
  rank.resize(state->problems.size());
  for (std::size_t r = 0; r < rank.size(); ++r) rank[r] = r;
  std::shuffle(rank.begin(), rank.end(), std::mt19937_64(mix64(options.seed)));
  core::PartitionServer& server = *state->server;

  struct Client {
    Live live;
    RunResult result;
    std::unique_ptr<Tracer> tracer;
    std::vector<std::size_t> first;  ///< problem of each of the first requests
    std::vector<Answer> sampled;
    double served_latency_ms = 0.0;  ///< summed server-measured latency
  };
  std::vector<Client> clients(kClients);
  const Clock::time_point epoch = Clock::now();
  for (Client& c : clients) c.tracer = std::make_unique<Tracer>(epoch);
  const core::SloStats slo_before = server.slo_stats();
  const ObsWindow deltas;
  const Windows windows = start_run(options, Clock::now(), kClients, live);
  const auto client_loop = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    const std::uint64_t stream = client_seed(options.seed, c);
    std::mt19937_64 rng(stream);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::size_t pick = 0;
    closed_loop(
        windows, options.trace ? me.tracer.get() : nullptr, me.live,
        live.windows[static_cast<std::size_t>(c)],
        c == 0 ? &live.cpu_marks : nullptr, me.result,
        [&](std::uint64_t i) {
          pick = rank[zipf_draw(state->cdf, uni(rng))];
          if (i < kReplayWindow) me.first.push_back(pick);
          const auto& [k, n] = state->problems[pick];
          return server.serve_slo(state->fleets.lists[k], n, {}, core::Slo{});
        },
        [&](std::uint64_t i, const core::ServeResult& r) {
          const auto& [k, n] = state->problems[pick];
          if (r.status != core::ServeStatus::Ok) {
            me.result.fail("no-deadline serve_slo was not answered in full");
            return;
          }
          me.served_latency_ms += 1e3 * r.latency_s;
          check_answer(r.result.distribution, 64, n, me.result, "serve_hit");
          if (exactness_sampled(stream, i) &&
              me.sampled.size() < kMaxChecks / kClients)
            me.sampled.push_back({k, n, r.result.distribution.counts});
        });
  };
  {
    std::jthread second(client_loop, 1);
    client_loop(0);
  }
  finish_cpu(windows, live.cpu_marks);
  deltas.close(live);

  for (Client& c : clients) {
    result.attempted += c.result.attempted;
    result.failed += c.result.failed;
    for (std::string& p : c.result.problems)
      result.problems.push_back(std::move(p));
    live.latency.merge(c.live.latency);
    live.lag.merge(c.live.lag);
    live.exact += c.live.exact;
    live.served_latency_mean_ms += c.served_latency_ms;
    for (const Answer& a : c.sampled) {
      const core::SpeedList& list = state->fleets.lists[a.fleet];
      check_matches_engine(list, a.n, {a.counts}, result, "cache hit");
      check_near_optimal(list, a.n, {a.counts}, result);
    }
  }
  live.served_latency_mean_ms /= static_cast<double>(
      std::max<std::int64_t>(1, live.exact));
  check_accounting(slo_before, server.slo_stats(), result.attempted, live,
                   result);
  if (live.cache_misses != 0)
    result.problem(std::to_string(live.cache_misses) +
                   " timed requests missed the cache");

  LayerCounts counts;
  if (options.trace) {
    core::PartitionCache cache(4096, 16);
    for (std::uint64_t i = 0; i < clients[0].first.size(); i += kReplayEvery) {
      const auto& [k, n] = state->problems[clients[0].first[i]];
      replay_layers(*clients[0].tracer, i, state->fleets.lists[k], n, cache,
                    counts, result);
    }
  }
  const Tracer* tracers[] = {clients[0].tracer.get(),
                             clients[1].tracer.get()};
  report(options, live, counts, merge(tracers), result);
  return result;
}

// ---------------------------------------------------------------------------
// serve_drift / serve_overload: open-loop submit() with drifting n
// ---------------------------------------------------------------------------

/// Offered load of an open-loop workload: Poisson arrivals at `rate`
/// requests/s, raised to `burst` x `rate` during the first `burst_s` of
/// every `period_s`.
struct Traffic {
  double rate;
  double burst = 1.0;
  double burst_s = 0.0;
  double period_s = 1.0;
};

/// Fixed offered loads (never calibrated at run time), against the
/// two-worker server's capacity of about 12000 full answers/s on this
/// traffic on the benchmark's first host: serve_drift at 1/3 of it,
/// serve_overload at 5000/s with bursts of 15000/s (1.25x) in the first
/// 50 ms of every 200 ms, which fill the queue each time. Faster bursts
/// keep the senders, which build the degraded answers, too busy to send on
/// time. README.md records the measurements that chose them.
constexpr Traffic kDrift{4000.0};
constexpr Traffic kOverload{5000.0, 3.0, 0.050, 0.200};

/// Open loop against a two-worker server (cache 4096, hints 4096, queue
/// 128) from two client threads, each sending its own stream at half the
/// load and taking its own answers. Each request is a submit() for one of
/// 32 p = 64 fleets (Zipf 1.1) at n = base + [0, 250000): it misses the
/// cache, warm-starts from the fleet's hint, and inserts. SLO mix: 20 ms
/// deadline, 20/60/20 low/normal/high priority, 10% refuse degradation.
/// submit() runs admission and any degraded answer on the sender's thread,
/// so one sender cannot offer overload on time; two senders plus the two
/// workers fill the four-thread budget. Latency runs from the scheduled
/// send time, so a stalled sender shows; a lag p99 above 1 ms marks the
/// run's timings invalid. Every answer sums to n; a seeded sample of full
/// answers is checked bit-identical to a direct partition() and near the
/// exact optimum, a seeded sample of degraded answers for a dominating
/// bound, and the server's accounting against what was submitted.
RunResult run_open_loop(const Options& options, const Traffic& traffic) {
  constexpr std::size_t kFleets = 32;
  constexpr int kClients = 2;
  RunResult result;
  Live live;
  core::ServerOptions server_options;
  server_options.threads = 2;
  server_options.cache_capacity = 4096;
  server_options.hint_capacity = 4096;
  server_options.max_queue_depth = 128;
  const auto state = build_median(
      kSetupReps,
      [&] {
        auto s = build_served(kFleets, 1, server_options);
        // Warm-up: drifting near-miss solves through the worker pool, as the
        // timed traffic sends them. Workers that have not solved before
        // start slowly enough to back the queue up for a second.
        std::vector<std::future<core::ServeResult>> warm;
        for (std::size_t i = 0; i < 2048; ++i) {
          const std::size_t k = i % kFleets;
          warm.push_back(s->server->submit(core::BatchRequest{
              s->fleets.lists[k],
              base_n(k) + static_cast<std::int64_t>(mix64(i) % 250'000)}));
        }
        for (std::future<core::ServeResult>& f : warm) (void)f.get();
        return s;
      },
      live.setup_s);
  core::PartitionServer& server = *state->server;

  struct Pending {
    std::future<core::ServeResult> answer;
    Clock::time_point due, sent;
    std::uint64_t request;
    std::size_t fleet;
    std::int64_t n;
  };
  struct Client {
    Live live;
    RunResult result;
    std::unique_ptr<Tracer> tracer;
    std::vector<Answer> exact_sampled, degraded_sampled;
    double served_latency_ms = 0.0;  ///< summed over full answers
  };
  std::vector<Client> clients(kClients);
  // (fleet, n) of request i < kReplayWindow (n = 0: not sent); request i
  // is sent by client i % kClients, so the clients write disjoint slots.
  std::vector<std::pair<std::size_t, std::int64_t>> first(kReplayWindow);
  obs::Gauge& depth = obs::metrics().gauge(obs::names::kServerQueueDepth);
  const core::SloStats slo_before = server.slo_stats();
  const ObsWindow deltas;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Windows windows = start_run(options, start, kClients, live);
  for (Client& c : clients) c.tracer = std::make_unique<Tracer>(start);

  const auto client_loop = [&](int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    Live& seen = me.live;
    WindowLog& log = live.windows[static_cast<std::size_t>(c)];
    const auto take = [&](Pending& p) {
      core::ServeResult r;
      try {
        r = p.answer.get();
      } catch (const std::exception& e) {
        me.result.fail(std::string("request threw: ") + e.what());
        log.record(p.due, false, false, std::nan(""));
        return;
      }
      switch (r.shed_reason) {
        case core::ShedReason::Admission: ++seen.shed_admission; break;
        case core::ShedReason::QueueFull: ++seen.shed_queue_full; break;
        case core::ShedReason::Expired: ++seen.shed_expired; break;
        default: break;
      }
      if (r.status == core::ServeStatus::Shed) {
        ++seen.shed;
        log.record(p.due, false, false, std::nan(""));
        return;
      }
      const double latency_s = seconds_between(p.due, p.sent) + r.latency_s;
      const bool in_time = latency_s <= kDeadlineS;
      if (!in_time) ++seen.deadline_misses;
      const bool full = r.status == core::ServeStatus::Ok;
      log.record(p.due, true, in_time, full ? 1e3 * latency_s : std::nan(""));
      if (options.trace)
        me.tracer->record(SpanName::Request, p.sent,
                          p.sent + seconds_dur(r.latency_s), p.request);
      if (!check_answer(r.result.distribution, 64, p.n, me.result,
                        "open loop"))
        return;
      const bool sampled = exactness_sampled(options.seed, p.request);
      const std::size_t cap = kMaxChecks / kClients;
      if (full) {
        ++seen.exact;
        seen.latency.add_ms(1e3 * latency_s);
        me.served_latency_ms += 1e3 * r.latency_s;
        if (sampled && me.exact_sampled.size() < cap)
          me.exact_sampled.push_back(
              {p.fleet, p.n, r.result.distribution.counts});
      } else {
        ++seen.degraded;
        if (sampled && me.degraded_sampled.size() < cap)
          me.degraded_sampled.push_back(
              {p.fleet, p.n, r.result.distribution.counts, r.error_bound});
      }
    };
    std::deque<Pending> pending;
    const auto take_ready = [&] {
      while (!pending.empty() &&
             pending.front().answer.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        take(pending.front());
        pending.pop_front();
      }
    };

    std::mt19937_64 rng(client_seed(options.seed, c));
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::exponential_distribution<double> gap(1.0);
    // Arrivals at the burst rate, thinned to the base rate outside bursts.
    const double peak = traffic.rate * traffic.burst / kClients;
    double due_s = 0.0;
    const auto next_due = [&] {
      do {
        due_s += gap(rng) / peak;
      } while (std::fmod(due_s, traffic.period_s) >= traffic.burst_s &&
               uni(rng) * traffic.burst >= 1.0);
    };
    Clock::time_point next_depth_sample = start;
    next_due();
    for (std::uint64_t j = 0; due_s < options.seconds; ++j, next_due()) {
      const std::uint64_t i = j * kClients + static_cast<std::uint64_t>(c);
      const Clock::time_point due = start + seconds_dur(due_s);
      take_ready();
      Clock::time_point now = Clock::now();
      while (now < due) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            due - now, std::chrono::microseconds(500)));
        take_ready();
        now = Clock::now();
      }
      if (c == 0) {
        mark_cpu(windows, now, live.cpu_marks);
        if (now >= next_depth_sample) {
          live.queue_depth.push_back(static_cast<double>(depth.value()));
          while (next_depth_sample <= now)
            next_depth_sample += std::chrono::milliseconds(10);
        }
      }
      const std::size_t k = zipf_draw(state->cdf, uni(rng));
      core::BatchRequest request;
      request.speeds = state->fleets.lists[k];
      request.n = base_n(k) + static_cast<std::int64_t>(rng() % 250'000);
      request.slo.deadline_s = kDeadlineS;
      const double pu = uni(rng);
      request.slo.priority = pu < 0.2   ? core::Priority::Low
                             : pu < 0.8 ? core::Priority::Normal
                                        : core::Priority::High;
      request.slo.allow_degraded = uni(rng) >= 0.1;
      if (i < kReplayWindow) first[i] = {k, request.n};
      const std::int64_t n = request.n;
      const Clock::time_point sent = Clock::now();
      seen.lag.add_ms(1e3 * seconds_between(due, sent));
      pending.push_back(
          {server.submit(std::move(request)), due, sent, i, k, n});
      ++me.result.attempted;
    }
    for (Pending& p : pending) take(p);
    log.close();
  };
  {
    std::jthread second(client_loop, 1);
    client_loop(0);
  }
  finish_cpu(windows, live.cpu_marks);
  deltas.close(live);

  double served_latency_ms = 0.0;
  for (Client& c : clients) {
    const Live& seen = c.live;
    result.attempted += c.result.attempted;
    result.failed += c.result.failed;
    for (std::string& p : c.result.problems)
      result.problems.push_back(std::move(p));
    live.latency.merge(seen.latency);
    live.lag.merge(seen.lag);
    live.exact += seen.exact;
    live.degraded += seen.degraded;
    live.shed += seen.shed;
    live.shed_admission += seen.shed_admission;
    live.shed_queue_full += seen.shed_queue_full;
    live.shed_expired += seen.shed_expired;
    live.deadline_misses += seen.deadline_misses;
    served_latency_ms += c.served_latency_ms;
    for (const Answer& a : c.exact_sampled) {
      const core::SpeedList& list = state->fleets.lists[a.fleet];
      check_matches_engine(list, a.n, {a.counts}, result, "served answer");
      check_near_optimal(list, a.n, {a.counts}, result);
    }
    for (const Answer& a : c.degraded_sampled)
      check_degraded_bound(state->fleets.lists[a.fleet], a.n, {a.counts},
                           a.bound, result);
  }
  live.served_latency_mean_ms =
      live.exact > 0 ? served_latency_ms / static_cast<double>(live.exact)
                     : 0.0;
  check_accounting(slo_before, server.slo_stats(), result.attempted, live,
                   result);
  const double lag_p99 = live.lag.quantile_ms(0.99);
  if (lag_p99 > 1.0)
    result.invalid.push_back("sender lag p99 " + std::to_string(lag_p99) +
                             " ms exceeds 1 ms: the offered rate was not met");

  LayerCounts counts;
  if (options.trace) {
    core::PartitionCache cache(4096, 16);
    for (std::uint64_t i = 0; i < kReplayWindow; i += kReplayEvery) {
      const auto& [k, n] = first[i];
      if (n > 0)
        replay_layers(*clients[0].tracer, i, state->fleets.lists[k], n, cache,
                      counts, result);
    }
  }
  const Tracer* tracers[] = {clients[0].tracer.get(),
                             clients[1].tracer.get()};
  report(options, live, counts, merge(tracers), result);
  return result;
}

RunResult run_serve_drift(const Options& options) {
  return run_open_loop(options, kDrift);
}

RunResult run_serve_overload(const Options& options) {
  return run_open_loop(options, kOverload);
}

constexpr Workload kWorkloads[] = {
    {"solve_p4096", run_solve_p4096},
    {"vgb_lu", run_vgb_lu},
    {"serve_hit", run_serve_hit},
    {"serve_drift", run_serve_drift},
    {"serve_overload", run_serve_overload},
};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

}  // namespace fpm::perf
