#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/compiled.hpp"
#include "core/finetune.hpp"
#include "core/policy.hpp"
#include "core/slo.hpp"
#include "perf.hpp"

namespace fpm::perf {

// ---------------------------------------------------------------------------
// Results and statistics
// ---------------------------------------------------------------------------

void RunResult::fail(const std::string& why) {
  ++failed;
  // Every failure is counted; the first few reasons are enough to debug.
  if (problems.size() < 16) problems.push_back(why);
}

void RunResult::problem(const std::string& why) { problems.push_back(why); }

void RunResult::add(std::string name, double value, std::string unit,
                    std::int64_t samples) {
  if (!std::isfinite(value)) {
    problem("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Samples::add_ms(double ms) {
  const auto ns = static_cast<std::uint64_t>(
      std::clamp(ms * 1e6 + 0.5, 0.0, static_cast<double>(1ull << 40)));
  std::size_t index = ns;
  if (ns >= (2u << kSubBits)) {
    const int shift = std::bit_width(ns) - 1 - kSubBits;
    index = (static_cast<std::size_t>(shift) << kSubBits) + (ns >> shift);
  }
  ++counts_[std::min(index, kBuckets - 1)];
  ++count_;
}

void Samples::merge(const Samples& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

bool Samples::observed(double q) const noexcept {
  return count_ > 0 && static_cast<double>(count_) * (1.0 - q) >= 10.0 - 1e-9;
}

double Samples::quantile_ms(double q) const {
  if (!observed(q))
    throw std::runtime_error(
        "quantile " + std::to_string(q) + " needs at least ten samples beyond "
        "it, have " + std::to_string(count_) + " samples");
  return estimate_ms(q);
}

double Samples::estimate_ms(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (c == 0.0 || before + c <= rank) {
      before += c;
      continue;
    }
    // Bucket i covers [low, low + width) nanoseconds.
    double low = static_cast<double>(i), width = 1.0;
    if (i >= (2u << kSubBits)) {
      const std::size_t shift = (i >> kSubBits) - 1;
      low = static_cast<double>((i - (shift << kSubBits)) << shift);
      width = static_cast<double>(1ull << shift);
    }
    return 1e-6 * (low + width * (rank - before) / c);
  }
  throw std::logic_error("quantile rank beyond the recorded samples");
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto below = static_cast<std::size_t>(rank);
  const std::size_t above = std::min(below + 1, xs.size() - 1);
  return xs[below] + (rank - static_cast<double>(below)) *
                         (xs[above] - xs[below]);
}

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec (the launching interpreter's).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kb = -1;
  while (kb < 0 && std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
  std::fclose(f);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kb) / 1024.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Windows
// ---------------------------------------------------------------------------

Windows::Windows(Clock::time_point start, double seconds)
    : start_(start),
      count_(static_cast<std::size_t>(
          std::max(1.0, std::round(seconds / kWindowS)))),
      length_s_(seconds / static_cast<double>(count_)) {}

Clock::time_point Windows::boundary(std::size_t k) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          length_s_ * static_cast<double>(k)));
}

std::size_t Windows::at(Clock::time_point t) const {
  const double k = offset_s(t) / length_s_;
  if (!(k > 0.0)) return 0;
  return std::min(count_ - 1, static_cast<std::size_t>(k));
}

double Windows::offset_s(Clock::time_point t) const {
  return seconds_between(start_, t);
}

void mark_cpu(const Windows& windows, Clock::time_point now,
              std::vector<double>& marks) {
  while (marks.size() <= windows.count() &&
         windows.boundary(marks.size()) <= now)
    marks.push_back(process_cpu_s());
}

void finish_cpu(const Windows& windows, std::vector<double>& marks) {
  // An open loop's last answer can arrive before the run's nominal end.
  mark_cpu(windows,
           std::max(Clock::now(), windows.boundary(windows.count())), marks);
}

WindowLog::WindowLog(const Windows& windows)
    : attempted(windows.count()),
      answered(windows.count()),
      on_time(windows.count()),
      p50_ms(windows.count(), std::nan("")),
      windows_(windows),
      first_s_(windows.count()),
      last_s_(windows.count()) {}

void WindowLog::record(Clock::time_point at, bool answer, bool in_time,
                       double latency_ms) {
  const std::size_t window = windows_.at(at);
  if (window != open_) settle(window);
  const double s = windows_.offset_s(at);
  if (attempted[window]++ == 0) first_s_[window] = s;
  last_s_[window] = s;
  answered[window] += answer;
  on_time[window] += in_time;
  if (!std::isnan(latency_ms)) latencies_.push_back(latency_ms);
}

void WindowLog::close() { settle(open_ + 1); }

double WindowLog::pace(std::size_t k) const {
  const double span = last_s_[k] - first_s_[k];
  if (attempted[k] < 2 || !(span > 0.0))
    return static_cast<double>(attempted[k]) / windows_.length_s();
  return static_cast<double>(attempted[k] - 1) / span;
}

void WindowLog::settle(std::size_t window) {
  if (latencies_.size() >= 20 && open_ < p50_ms.size()) {
    // In place: the buffer holds a whole window of cache hits.
    const auto mid = latencies_.begin() +
                     static_cast<std::ptrdiff_t>(latencies_.size() / 2);
    std::nth_element(latencies_.begin(), mid, latencies_.end());
    p50_ms[open_] = latencies_.size() % 2
                        ? *mid
                        : 0.5 * (*mid + *std::max_element(latencies_.begin(),
                                                          mid));
  }
  latencies_.clear();
  open_ = window;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

const char* to_string(SpanName name) noexcept {
  switch (name) {
    case SpanName::Request: return "request";
    case SpanName::Replay: return "replay";
    case SpanName::Fingerprint: return "compiled.fingerprint";
    case SpanName::Compile: return "compiled.compile";
    case SpanName::Bracket: return "partition.bracket";
    case SpanName::Sweep: return "partition.sweep";
    case SpanName::FineTune: return "finetune";
    case SpanName::Engine: return "policy.engine";
    case SpanName::Key: return "server.key";
    case SpanName::CacheInsert: return "server.cache_insert";
    case SpanName::CacheLookup: return "server.cache_lookup";
    case SpanName::Degrade: return "slo.degrade";
    case SpanName::Vgb: return "vgb";
    case SpanName::VgbGroupSolve: return "vgb.group_solve";
    case SpanName::ServerReplay: return "server.serve";
  }
  return "?";
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int32_t Tracer::record(SpanName name, Clock::time_point start,
                            Clock::time_point end, std::uint64_t request,
                            std::int32_t parent) {
  spans_.push_back({ns(start), ns(end), request, parent, name});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::int32_t Tracer::open(SpanName name, std::uint64_t request) {
  const Clock::time_point now = Clock::now();
  return record(name, now, now, request);
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
}

std::vector<Span> merge(std::span<const Tracer* const> tracers) {
  std::vector<Span> all;
  for (const Tracer* t : tracers) {
    const auto base = static_cast<std::int32_t>(all.size());
    for (Span s : t->spans()) {
      if (s.parent >= 0) s.parent += base;
      all.push_back(s);
    }
  }
  return all;
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void write_spans(const std::string& path, std::span<const Span> spans,
                 std::span<const std::int64_t> self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "index,parent,name,request,start_us,end_us,self_us\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Request spans past the replay window only feed the in-memory
    // statistics: a closed loop of cache hits takes millions of them.
    if (s.name == SpanName::Request && s.request >= kReplayWindow) continue;
    std::fprintf(f, "%zu,%d,%s,%llu,%.3f,%.3f,%.3f\n", i, s.parent,
                 to_string(s.name), static_cast<unsigned long long>(s.request),
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns),
                 1e-3 * static_cast<double>(self_ns[i]));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

namespace {

/// What tracing adds to a request: one span append (the clock reads that
/// bound it happen untraced too), median of repeated batches, in ns.
double span_record_cost_ns() {
  constexpr int kBatch = 100000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    Tracer scratch(Clock::now());
    const Clock::time_point a = Clock::now();
    for (int i = 0; i < kBatch; ++i)
      scratch.record(SpanName::Request, a, a, static_cast<std::uint64_t>(i));
    per_span.push_back(seconds_between(a, Clock::now()) * 1e9 / kBatch);
  }
  return median(per_span);
}

/// Median self time, in microseconds, of the spans named `name`.
double median_self_us(std::span<const Span> spans,
                      std::span<const std::int64_t> self_ns, SpanName name) {
  std::vector<double> us;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == name) us.push_back(1e-3 * self_ns[i]);
  return median(std::move(us));
}

/// Interpolated median of a histogram delta (linear inside a log bucket).
double histogram_median(const obs::Histogram::Snapshot& now,
                        const obs::Histogram::Snapshot& then) {
  std::vector<std::int64_t> delta(now.counts.size());
  std::int64_t total = 0;
  for (std::size_t k = 0; k < delta.size(); ++k) {
    delta[k] = now.counts[k] - (k < then.counts.size() ? then.counts[k] : 0);
    total += delta[k];
  }
  if (total == 0) return 0.0;
  const double target = 0.5 * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t k = 0; k < delta.size(); ++k) {
    const auto c = static_cast<double>(delta[k]);
    if (c > 0.0 && cum + c >= target) {
      const double lo = k == 0 ? 0.0 : now.bounds[k - 1];
      const double hi =
          k < now.bounds.size() ? now.bounds[k] : 2.0 * now.bounds.back();
      return lo + (target - cum) / c * (hi - lo);
    }
    cum += c;
  }
  return now.bounds.back();
}

std::int64_t counter(const char* name) {
  return obs::metrics().counter(name).value();
}

std::string engine_calls_name() {
  return std::string(obs::names::kPartitionInvocationsPrefix) +
         core::kAlgorithmCombined;
}

}  // namespace

// ---------------------------------------------------------------------------
// Obs deltas
// ---------------------------------------------------------------------------

ObsWindow::ObsWindow()
    : engine_calls_(counter(engine_calls_name().c_str())),
      warm_hits_(counter(obs::names::kPartitionWarmstartHits)),
      warm_saved_(counter(obs::names::kPartitionWarmstartIterationsSaved)),
      hits_(counter(obs::names::kServerCacheHits)),
      misses_(counter(obs::names::kServerCacheMisses)),
      evictions_(counter(obs::names::kServerCacheEvictions)),
      service_(obs::metrics()
                   .histogram(obs::names::kServerServeLatency)
                   .snapshot()) {}

void ObsWindow::close(Live& live) const {
  live.engine_calls = counter(engine_calls_name().c_str()) - engine_calls_;
  live.warm_hits = counter(obs::names::kPartitionWarmstartHits) - warm_hits_;
  live.warm_iterations_saved =
      counter(obs::names::kPartitionWarmstartIterationsSaved) - warm_saved_;
  live.cache_hits = counter(obs::names::kServerCacheHits) - hits_;
  live.cache_misses = counter(obs::names::kServerCacheMisses) - misses_;
  live.cache_evictions = counter(obs::names::kServerCacheEvictions) -
                         evictions_;
  const obs::Histogram::Snapshot now =
      obs::metrics().histogram(obs::names::kServerServeLatency).snapshot();
  live.serves = now.count - service_.count;
  live.service_p50_ms = 1e3 * histogram_median(now, service_);
  live.service_mean_ms =
      live.serves > 0 ? 1e3 * (now.sum - service_.sum) /
                            static_cast<double>(live.serves)
                      : 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer replay
// ---------------------------------------------------------------------------

void replay_layers(Tracer& tracer, std::uint64_t request,
                   const core::SpeedList& speeds, std::int64_t n,
                   core::PartitionCache& cache, LayerCounts& counts,
                   RunResult& result) {
  const std::int32_t parent = tracer.open(SpanName::Replay, request);
  // Runs one layer call in a child span; returns its wall time in us.
  const auto timed = [&](SpanName name, const auto& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    tracer.record(name, t0, t1, request, parent);
    return 1e6 * seconds_between(t0, t1);
  };
  obs::Counter& simd = obs::metrics().counter(
      obs::names::kPartitionBatchSimdEntries);
  obs::Counter& scalar = obs::metrics().counter(
      obs::names::kPartitionBatchScalarEntries);
  obs::Counter& splits = obs::metrics().counter(
      obs::names::kPartitionBatchParallelSweeps);

  timed(SpanName::Fingerprint,
        [&] { (void)core::CompiledSpeedList::fingerprint_of(speeds); });
  core::CompiledSpeedList compiled;
  timed(SpanName::Compile,
        [&] { compiled = core::CompiledSpeedList::compile(speeds); });
  core::EvalCounters bracket_evals;
  const double bracket_us = timed(SpanName::Bracket, [&] {
    (void)core::detect_bracket(compiled, n, &bracket_evals);
  });
  const std::int64_t simd0 = simd.value(), scalar0 = scalar.value(),
                     splits0 = splits.value();
  core::PartitionResult solved;
  const double engine_us = timed(SpanName::Engine, [&] {
    core::PrecompiledGuard guard(speeds, compiled);
    solved = core::partition(speeds, n);
  });
  counts.simd_entries += simd.value() - simd0;
  counts.scalar_entries += scalar.value() - scalar0;
  counts.parallel_sweeps += splits.value() - splits0;
  const double slope = solved.stats.final_slope;
  const double sweep_us = timed(SpanName::Sweep, [&] {
    (void)core::total_size_at(compiled, slope, nullptr);
  });
  const std::vector<double> small = core::sizes_at(compiled, slope, nullptr);
  core::EvalCounters finetune_evals;
  core::Distribution tuned;
  const double finetune_us = timed(SpanName::FineTune, [&] {
    tuned = core::fine_tune(compiled, n, small, &finetune_evals);
  });
  std::string key;
  timed(SpanName::Key, [&] {
    key = core::PartitionCache::make_key(
        core::CompiledSpeedList::fingerprint_of(speeds), n, {});
  });
  timed(SpanName::CacheInsert, [&] { (void)cache.insert(key, solved); });
  core::PartitionResult cached;
  bool hit = false;
  timed(SpanName::CacheLookup, [&] { hit = cache.lookup(key, cached); });
  // The degraded answer for a slightly larger n from this solution, as the
  // server builds it from its hint store.
  const std::int64_t degraded_n = n + n / 64 + 1;
  std::optional<core::DegradedAnswer> degraded;
  timed(SpanName::Degrade, [&] {
    degraded = core::degraded_answer(speeds, degraded_n,
                                     solved.distribution.counts, n);
  });
  tracer.close(parent);

  check_answer(solved.distribution, speeds.size(), n, result, "replay");
  if (tuned.counts != solved.distribution.counts)
    result.fail("replayed fine-tune differs from the engine's answer");
  if (!hit || cached.distribution.counts != solved.distribution.counts)
    result.fail("bench-side cache did not return the inserted answer");
  if (degraded &&
      check_answer(degraded->distribution, speeds.size(), degraded_n, result,
                   "replayed degraded answer"))
    check_degraded_bound(speeds, degraded_n, degraded->distribution,
                         degraded->error_bound, result);

  const auto p = static_cast<double>(speeds.size());
  const double sweeps =
      static_cast<double>(solved.stats.search_intersect_solves) / p;
  const double bracket_sweeps =
      static_cast<double>(bracket_evals.intersect_solves) / p;
  ++counts.samples;
  counts.sweeps += sweeps;
  counts.iterations += solved.stats.iterations;
  counts.speed_evals += solved.stats.speed_evals;
  counts.intersect_solves += solved.stats.intersect_solves;
  counts.search_intersect_solves += solved.stats.search_intersect_solves;
  counts.bracket_saturations += solved.stats.bracket_saturations;
  counts.finetune_speed_evals += finetune_evals.speed_evals;
  counts.search_share.push_back(sweeps * sweep_us / engine_us);
  counts.overhead_us.push_back(engine_us - bracket_us -
                               (sweeps - bracket_sweeps) * sweep_us -
                               finetune_us);
}

void replay_through_server(Tracer& tracer, std::span<const Problem> problems,
                           Live& live, RunResult& result) {
  core::ServerOptions options;
  options.threads = 1;
  core::PartitionServer server(options);
  const ObsWindow window;
  double latency_s = 0.0;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const Problem& pr = problems[i];
    const Clock::time_point t0 = Clock::now();
    const core::ServeResult r =
        server.submit(core::BatchRequest{*pr.speeds, pr.n}).get();
    tracer.record(SpanName::ServerReplay, t0, Clock::now(), i);
    latency_s += r.latency_s;
    check_answer(r.result.distribution, pr.speeds->size(), pr.n, result,
                 "server replay");
  }
  Live deltas;
  window.close(deltas);
  live.serves = deltas.serves;
  live.service_p50_ms = deltas.service_p50_ms;
  live.service_mean_ms = deltas.service_mean_ms;
  live.served_latency_mean_ms =
      problems.empty() ? 0.0
                       : 1e3 * latency_s / static_cast<double>(problems.size());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

namespace {

/// latency_p50_ms, throughput_rps, goodput_rps and cpu_s_per_request: the
/// better tenth of the run's windows (kBetterTail). A window's rates add up
/// its clients' paces; its latency is the mean of their window medians (the
/// clients are alike).
void add_window_metrics(const Live& live, RunResult& result) {
  const std::size_t count =
      live.windows.empty() ? 0 : live.windows.front().attempted.size();
  if (count == 0 || live.cpu_marks.size() != count + 1)
    throw std::logic_error("window tallies incomplete");
  std::vector<double> p50, served, good, cpu;
  std::int64_t answered = 0, on_time = 0;
  for (std::size_t k = 0; k < count; ++k) {
    std::int64_t tried = 0;
    double done_rps = 0.0, in_time_rps = 0.0, p50_sum = 0.0;
    int p50_count = 0;
    for (const WindowLog& w : live.windows) {
      if (w.attempted[k] == 0) continue;
      const double per_record =
          w.pace(k) / static_cast<double>(w.attempted[k]);
      tried += w.attempted[k];
      done_rps += per_record * static_cast<double>(w.answered[k]);
      in_time_rps += per_record * static_cast<double>(w.on_time[k]);
      answered += w.answered[k];
      on_time += w.on_time[k];
      if (!std::isnan(w.p50_ms[k])) {
        p50_sum += w.p50_ms[k];
        ++p50_count;
      }
    }
    if (p50_count > 0) p50.push_back(p50_sum / p50_count);
    served.push_back(done_rps);
    good.push_back(in_time_rps);
    cpu.push_back((live.cpu_marks[k + 1] - live.cpu_marks[k]) /
                  static_cast<double>(std::max<std::int64_t>(1, tried)));
  }
  // A window with fewer than 20 full answers per client has no median. A
  // slow phase of the host can starve every window of solve_p4096 (about
  // 45 solves per window at full speed); then the run's timings are
  // invalid and its latency is the median over the whole run.
  if (p50.empty()) {
    result.invalid.push_back(
        "no window has 20 full answers per client: latency_p50_ms is the "
        "median over the whole run");
    p50.push_back(live.latency.estimate_ms(0.5));
  }
  const auto low = [](std::vector<double>& xs) {
    return quantile(std::move(xs), kBetterTail);
  };
  const auto high = [](std::vector<double>& xs) {
    return quantile(std::move(xs), 1.0 - kBetterTail);
  };
  result.add("latency_p50_ms", low(p50), "ms", live.latency.count());
  result.add("throughput_rps", high(served), "1/s", answered);
  result.add("goodput_rps", high(good), "1/s", on_time);
  result.add("cpu_s_per_request", low(cpu), "s", result.attempted);
}

}  // namespace

void report(const Options& options, Live& live, const LayerCounts& counts,
            std::span<const Span> spans, RunResult& result) {
  const auto attempted = static_cast<double>(std::max<std::int64_t>(
      1, result.attempted));
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  add_window_metrics(live, result);
  if (!options.trace) {
    result.add("setup_s", live.setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  const std::vector<std::int64_t> self = self_times_ns(spans);
  const auto self_us = [&](SpanName name) {
    return median_self_us(spans, self, name);
  };
  const auto samples = static_cast<double>(counts.samples);
  const auto per_sample = [&](double total) { return ratio(total, samples); };
  // A p99 needs 1000 samples. A slow phase can leave solve_p4096 short of
  // them; its traced run then reports what it has and is marked invalid.
  const auto p99_ms = [&](const Samples& s, const char* metric) {
    if (!s.observed(0.99))
      result.invalid.push_back(std::string(metric) + " from " +
                               std::to_string(s.count()) +
                               " samples, fewer than the 1000 a p99 needs");
    return s.estimate_ms(0.99);
  };

  result.add("compiled.fingerprint_us", self_us(SpanName::Fingerprint), "us",
             counts.samples);
  result.add("compiled.compile_us", self_us(SpanName::Compile), "us",
             counts.samples);
  result.add("partition.bracket_us", self_us(SpanName::Bracket), "us",
             counts.samples);
  result.add("partition.sweep_us", self_us(SpanName::Sweep), "us",
             counts.samples);
  result.add("partition.sweeps_per_request", per_sample(counts.sweeps),
             "count");
  result.add("partition.search_share", median(counts.search_share), "ratio");
  result.add("partition.iterations", per_sample(counts.iterations), "count");
  result.add("partition.speed_evals", per_sample(counts.speed_evals),
             "count");
  result.add("partition.intersect_solves", per_sample(counts.intersect_solves),
             "count");
  result.add("partition.search_intersect_solves",
             per_sample(counts.search_intersect_solves), "count");
  result.add("partition.bracket_saturations",
             per_sample(counts.bracket_saturations), "count");
  result.add("simd.vector_entry_share",
             ratio(counts.simd_entries,
                   counts.simd_entries + counts.scalar_entries),
             "ratio");
  result.add("simd.parallel_sweeps_per_request",
             per_sample(counts.parallel_sweeps), "count");
  result.add("finetune.us", self_us(SpanName::FineTune), "us",
             counts.samples);
  result.add("finetune.speed_evals", per_sample(counts.finetune_speed_evals),
             "count");
  result.add("policy.engine_us", self_us(SpanName::Engine), "us",
             counts.samples);
  result.add("policy.overhead_us", median(counts.overhead_us), "us",
             counts.samples);
  result.add("warmstart.hit_ratio", ratio(live.warm_hits, live.engine_calls),
             "ratio");
  result.add("warmstart.iterations_saved",
             ratio(live.warm_iterations_saved, live.warm_hits), "iterations");
  result.add("server.key_us", self_us(SpanName::Key), "us", counts.samples);
  result.add("server.cache_lookup_us", self_us(SpanName::CacheLookup), "us",
             counts.samples);
  result.add("server.cache_insert_us", self_us(SpanName::CacheInsert), "us",
             counts.samples);
  result.add("server.cache_hit_ratio",
             ratio(live.cache_hits, live.cache_hits + live.cache_misses),
             "ratio");
  result.add("server.cache_evictions_per_request",
             ratio(live.cache_evictions, attempted), "1/request");
  result.add("server.service_p50_ms", live.service_p50_ms, "ms", live.serves);
  result.add("server.queue_wait_ms",
             live.serves > 0
                 ? live.served_latency_mean_ms - live.service_mean_ms
                 : 0.0,
             "ms", live.serves);
  double depth = 0.0;
  for (const double d : live.queue_depth) depth += d;
  result.add("server.queue_depth_mean",
             ratio(depth, static_cast<double>(live.queue_depth.size())),
             "requests");
  result.add("slo.admission_shed_ratio",
             ratio(live.shed_admission, attempted), "ratio");
  result.add("slo.queue_full_shed_ratio",
             ratio(live.shed_queue_full, attempted), "ratio");
  result.add("slo.expired_ratio", ratio(live.shed_expired, attempted),
             "ratio");
  result.add("slo.deadline_miss_ratio", ratio(live.deadline_misses, attempted),
             "ratio");
  result.add("slo.degrade_us", self_us(SpanName::Degrade), "us",
             counts.samples);
  result.add("vgb.groups_per_request", per_sample(live.vgb_groups), "count");
  result.add("vgb.partition_share", median(live.vgb_partition_share),
             "ratio");
  result.add("latency_p99_ms", p99_ms(live.latency, "latency_p99_ms"), "ms",
             live.latency.count());
  result.add("exact_ratio", ratio(live.exact, attempted), "ratio");
  result.add("gen.lag_p99_ms", p99_ms(live.lag, "gen.lag_p99_ms"), "ms",
             live.lag.count());
  std::int64_t request_spans = 0;
  double request_ns = 0.0;
  for (const Span& s : spans)
    if (s.name == SpanName::Request) {
      ++request_spans;
      request_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  result.add("trace.overhead_ratio",
             ratio(static_cast<double>(request_spans) * span_record_cost_ns(),
                   request_ns),
             "ratio");
  result.add("degraded_ratio", ratio(live.degraded, attempted), "ratio");
  result.add("shed_ratio", ratio(live.shed, attempted), "ratio");
  result.add("error_ratio", ratio(result.failed, attempted), "ratio");

  if (!options.spans_out.empty()) write_spans(options.spans_out, spans, self);
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

bool check_answer(const core::Distribution& d, std::size_t p, std::int64_t n,
                  RunResult& result, const char* what) {
  if (d.counts.size() != p) {
    result.fail(std::string(what) + ": " + std::to_string(d.counts.size()) +
                " counts for " + std::to_string(p) + " processors");
    return false;
  }
  std::int64_t sum = 0;
  for (const std::int64_t c : d.counts) {
    if (c < 0) {
      result.fail(std::string(what) + ": negative count");
      return false;
    }
    sum += c;
  }
  if (sum != n) {
    result.fail(std::string(what) + ": counts sum to " + std::to_string(sum) +
                ", not n = " + std::to_string(n));
    return false;
  }
  return true;
}

void check_near_optimal(const core::SpeedList& speeds, std::int64_t n,
                        const core::Distribution& d, RunResult& result) {
  const core::Distribution best = core::exact_optimum(speeds, n);
  const double t_best = core::makespan(speeds, best);
  double slack = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const auto x = static_cast<double>(best.counts[i]);
    slack = std::max(slack, speeds[i]->time(x + 1.0) - speeds[i]->time(x));
  }
  const double t = core::makespan(speeds, d);
  if (!(t <= t_best + slack + 1e-9 * t_best))
    result.fail("makespan " + std::to_string(t) + " above exact optimum " +
                std::to_string(t_best) + " + slack " + std::to_string(slack) +
                " (n = " + std::to_string(n) + ")");
}

void check_matches_engine(const core::SpeedList& speeds, std::int64_t n,
                          const core::Distribution& d, RunResult& result,
                          const char* what) {
  if (core::partition(speeds, n).distribution.counts != d.counts)
    result.fail(std::string(what) + " differs from a direct partition() (n = " +
                std::to_string(n) + ")");
}

void check_degraded_bound(const core::SpeedList& speeds, std::int64_t n,
                          const core::Distribution& d, double bound,
                          RunResult& result) {
  const double exact =
      core::makespan(speeds, core::partition(speeds, n).distribution);
  const double error = core::makespan(speeds, d) / exact - 1.0;
  if (!(bound >= error - 1e-9))
    result.fail("degraded bound " + std::to_string(bound) +
                " below its true error " + std::to_string(error));
}

}  // namespace fpm::perf
