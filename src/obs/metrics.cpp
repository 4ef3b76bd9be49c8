#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <variant>

namespace fpm::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kHistogramShards = 8;
}  // namespace

Histogram::Histogram(HistogramOptions options)
    : options_(options), shards_(kHistogramShards) {
  if (!(options_.first_bound > 0.0) || !(options_.growth > 1.0) ||
      options_.buckets == 0)
    throw std::invalid_argument(
        "Histogram: need first_bound > 0, growth > 1, buckets >= 1");
  bounds_.reserve(options_.buckets);
  double b = options_.first_bound;
  for (std::size_t i = 0; i < options_.buckets; ++i) {
    bounds_.push_back(b);
    b *= options_.growth;
  }
  for (Shard& sh : shards_) sh.counts.assign(bounds_.size() + 1, 0);
}

Histogram::Shard& Histogram::shard_for_this_thread() noexcept {
  const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return shards_[h % shards_.size()];
}

void Histogram::record(double value) noexcept {
  if (std::isnan(value)) return;
  if (value < 0.0) value = 0.0;
  // Log-bucket index without a search: the bucket is determined by how many
  // growth factors fit between first_bound and the value. upper_bound keeps
  // the exact <= bound semantics at the seams.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t idx =
      static_cast<std::size_t>(it - bounds_.begin());  // == size: overflow
  Shard& sh = shard_for_this_thread();
  std::lock_guard<std::mutex> lock(sh.mu);
  ++sh.counts[idx];
  ++sh.count;
  sh.sum += value;
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.assign(bounds_.size() + 1, 0);
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (std::size_t i = 0; i < sh.counts.size(); ++i)
      s.counts[i] += sh.counts[i];
    s.count += sh.count;
    s.sum += sh.sum;
  }
  return s;
}

void Histogram::reset() noexcept {
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    std::fill(sh.counts.begin(), sh.counts.end(), 0);
    sh.count = 0;
    sh.sum = 0.0;
  }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Slot {
  std::string name;
  // Counter/Gauge hold atomics (immovable), so the variant alternative is
  // selected in place at construction and never reassigned.
  std::variant<Counter, Gauge, std::unique_ptr<Histogram>> metric;

  template <typename Kind, typename... A>
  Slot(std::string n, std::in_place_type_t<Kind> kind, A&&... a)
      : name(std::move(n)), metric(kind, std::forward<A>(a)...) {}
};

MetricsRegistry::~MetricsRegistry() {
  for (Slot* s : slots_) delete s;
}

MetricsRegistry::Slot* MetricsRegistry::find_locked(
    std::string_view name) const {
  for (Slot* s : slots_)
    if (s->name == name) return s;
  return nullptr;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Slot* s = find_locked(name)) {
    if (auto* c = std::get_if<Counter>(&s->metric)) return *c;
    throw std::invalid_argument("metrics: '" + std::string(name) +
                                "' is not a counter");
  }
  Slot* s = new Slot(std::string(name), std::in_place_type<Counter>);
  slots_.push_back(s);
  return std::get<Counter>(s->metric);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Slot* s = find_locked(name)) {
    if (auto* g = std::get_if<Gauge>(&s->metric)) return *g;
    throw std::invalid_argument("metrics: '" + std::string(name) +
                                "' is not a gauge");
  }
  Slot* s = new Slot(std::string(name), std::in_place_type<Gauge>);
  slots_.push_back(s);
  return std::get<Gauge>(s->metric);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (Slot* s = find_locked(name)) {
    if (auto* h = std::get_if<std::unique_ptr<Histogram>>(&s->metric))
      return **h;
    throw std::invalid_argument("metrics: '" + std::string(name) +
                                "' is not a histogram");
  }
  Slot* s = new Slot(std::string(name),
                     std::in_place_type<std::unique_ptr<Histogram>>,
                     std::make_unique<Histogram>(options));
  slots_.push_back(s);
  return *std::get<std::unique_ptr<Histogram>>(s->metric);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot* s : slots_) {
    if (auto* c = std::get_if<Counter>(&s->metric))
      c->reset();
    else if (auto* g = std::get_if<Gauge>(&s->metric))
      g->reset();
    else
      std::get<std::unique_ptr<Histogram>>(s->metric)->reset();
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot* s : slots_) {
      if (const auto* c = std::get_if<Counter>(&s->metric))
        out.counters.emplace_back(s->name, c->value());
      else if (const auto* g = std::get_if<Gauge>(&s->metric))
        out.gauges.emplace_back(s->name, g->value());
      else
        out.histograms.emplace_back(
            s->name,
            std::get<std::unique_ptr<Histogram>>(s->metric)->snapshot());
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

namespace {

std::string fmt_double(double v) {
  std::ostringstream ss;
  ss.precision(17);
  ss << v;
  return ss.str();
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Prometheus metric name: fpm_ prefix, illegal characters to '_'.
std::string prom_name(const std::string& name) {
  std::string out = "fpm_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot s = snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : s.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : s.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, name);
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + fmt_double(h.sum) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i != 0) out += ", ";
      out += "{\"le\": ";
      out += i < h.bounds.size() ? fmt_double(h.bounds[i]) : "\"+Inf\"";
      out += ", \"count\": " + std::to_string(h.counts[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsRegistry::to_prometheus() const {
  const MetricsSnapshot s = snapshot();
  std::string out;
  for (const auto& [name, value] : s.counters) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " counter\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : s.gauges) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " gauge\n";
    out += p + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : s.histograms) {
    const std::string p = prom_name(name);
    out += "# TYPE " + p + " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += p + "_bucket{le=\"";
      out += i < h.bounds.size() ? fmt_double(h.bounds[i]) : "+Inf";
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += p + "_sum " + fmt_double(h.sum) + "\n";
    out += p + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never freed:
  // hot paths cache references, which must stay valid through every static
  // destructor that might still partition.
  return *registry;
}

std::span<const MetricInfo> metric_catalogue() {
  static constexpr std::array<MetricInfo, 43> kCatalogue{{
      {"partition.invocations.<algorithm>", "counter",
       "core::partition() calls per registry algorithm (the paper's "
       "basic/modified/combined family, Figs. 7-15)"},
      {names::kPartitionSpeedEvals, "counter",
       "s(x) evaluations at the SpeedFunction boundary — the cost of "
       "consulting the functional performance model"},
      {names::kPartitionIntersectSolves, "counter",
       "c*x = s(x) solves — the paper's complexity unit for the "
       "bisection searches"},
      {names::kPartitionBracketSaturations, "counter",
       "generic-bisection bracket expansions that hit the 256-doubling cap "
       "still above the line: the solve returned a saturated-bracket "
       "midpoint, not a true crossing (slope far below every model)"},
      {names::kPartitionBracketFigure18Lines, "counter",
       "line solves spent on Figure 18's two bracket lines: a cold secant "
       "start on a wide window opens at the mean-speed line and solves "
       "none; narrow windows and flat curves fall back to the pair"},
      {names::kPartitionBatchSimdEntries, "counter",
       "intersect_all entries solved by the vector batch kernels (SIMD "
       "lane occupancy of the compiled SoA plan)"},
      {names::kPartitionBatchScalarEntries, "counter",
       "intersect_all entries solved scalar: per-entry fallback lane plus "
       "vector-kernel punts recomputed with libm (hit rate = simd / "
       "(simd + scalar))"},
      {names::kPartitionBatchParallelSweeps, "counter",
       "intersect_all sweeps that split their lanes across the lane pool "
       "(entry count above parallel_intersect_threshold)"},
      {names::kPartitionBatchBackend, "gauge",
       "active vector backend of the batch lanes as the core::SimdBackend "
       "enum value (0=off 1=portable 2=avx2 3=avx512 4=neon)"},
      {names::kPartitionBatchSimdEntriesPortable, "counter",
       "simd_entries solved by the portable (baseline-ISA) vector variant"},
      {names::kPartitionBatchSimdEntriesAvx2, "counter",
       "simd_entries solved by the AVX2+FMA 4-wide vector variant"},
      {names::kPartitionBatchSimdEntriesAvx512, "counter",
       "simd_entries solved by the AVX-512F/DQ 8-wide vector variant"},
      {names::kPartitionBatchSimdEntriesNeon, "counter",
       "simd_entries solved by the AArch64 NEON 4-wide vector variant"},
      {names::kPartitionWarmstartHits, "counter",
       "searches whose PartitionHint bracket verified, replacing the "
       "Fig. 18 cold bracket with a tight one around the previous slope"},
      {names::kPartitionWarmstartStale, "counter",
       "hints rejected (model fingerprint changed or the optimum drifted "
       "beyond the verification budget); the search ran cold"},
      {names::kPartitionWarmstartIterationsSaved, "counter",
       "bisection iterations saved versus each hint's cold baseline — the "
       "O(log2 n) vs O(log2 delta) gap on drifting inputs"},
      {names::kPartitionWarmstartProbes, "counter",
       "line solves (sweeps over all p processors) spent opening warm "
       "brackets — secant refinement plus straddle probes, adopted or "
       "stale; probes + iterations is a warm search's sweep count"},
      {names::kServerServeLatency, "histogram",
       "PartitionServer::serve wall time per request (partition cost the "
       "paper bounds by O(p^2 log2 n), Fig. 21)"},
      {names::kServerQueueDepth, "gauge",
       "requests queued for the server's worker pool"},
      {names::kServerCacheHits, "counter",
       "requests answered from the result cache (recurring (model, n, "
       "policy) triples)"},
      {names::kServerCacheMisses, "counter",
       "requests that ran the partitioner and stored their result"},
      {names::kServerCacheEvictions, "counter",
       "LRU evictions under cache-capacity pressure"},
      {names::kServerCacheUncacheable, "counter",
       "requests that bypassed the cache (observer-carrying policies, model "
       "lists with a Generic entry, or caching disabled)"},
      {names::kServerCacheBytes, "gauge",
       "payload the result caches hold: keys plus packed counts, allocator "
       "overhead excluded (summed over every cache in the process)"},
      {names::kServerHintsEvicted, "counter",
       "warm-start hints LRU-evicted under fingerprint churn "
       "(ServerOptions::hint_capacity)"},
      {names::kServerModelsHeld, "gauge",
       "compiled models the servers' hint stores hold: at most one per "
       "model list with requests waiting in a queue"},
      {names::kServerModelsReused, "counter",
       "cache misses and degraded answers served on a held compiled model "
       "instead of compiling the model list again"},
      {names::kServerSloOffered, "counter",
       "SLO-aware requests received (submit/run_batch/serve_slo); equals "
       "admitted + degraded + the four shed counters at all times"},
      {names::kServerSloAdmitted, "counter",
       "SLO requests answered in full by the engine or cache"},
      {names::kServerSloDegraded, "counter",
       "SLO requests answered approximately from the hint store (previous "
       "solution rescaled to the requested n, with an error bound)"},
      {names::kServerSloShedAdmission, "counter",
       "requests shed at submission: predicted completion past the "
       "deadline"},
      {names::kServerSloShedQueueFull, "counter",
       "requests displaced from a full queue (lowest priority, latest "
       "deadline first)"},
      {names::kServerSloShedExpired, "counter",
       "requests whose deadline passed while queued (shed at dispatch, "
       "before spending the solve)"},
      {names::kServerSloShedShutdown, "counter",
       "requests shed by drain() timeout or server destruction (their "
       "futures are still fulfilled)"},
      {names::kServerSloDeadlineMisses, "counter",
       "answers (full or degraded) delivered after their deadline"},
      {names::kServerSloQueueDelayMicros, "gauge",
       "latest admission-time queue-delay estimate (EWMA service time x "
       "queue depth ahead / workers), microseconds"},
      {names::kServerSloDegradeSeconds, "histogram",
       "degraded_answer() wall time per degraded request: the rescale plus "
       "its error-bound certificate, paid by the thread that sheds"},
      {names::kRebalanceRounds, "counter",
       "Rebalancer::step calls — iterations observed under fluctuating "
       "load (paper Fig. 2 performance bands)"},
      {names::kRebalanceRepartitions, "counter",
       "accepted repartitions from re-learned speed curves"},
      {names::kRebalanceEvacuations, "counter",
       "processors drained after collapse (paging / lost measurements)"},
      {names::kMppFailureEpochs, "counter",
       "rank-failure epochs observed by the mpp runtime"},
      {names::kMppRecoveryDuration, "histogram",
       "per-survivor recovery rendezvous wall time (checkpoint rollback + "
       "FPM re-partition over survivors)"},
      {names::kMppRecoveries, "counter",
       "completed recovery rounds (counted once per round, by the lowest "
       "surviving rank)"},
  }};
  return kCatalogue;
}

}  // namespace fpm::obs
