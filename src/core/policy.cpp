#include "core/policy.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace fpm::core {

namespace {

/// Extracts the options struct matching the dispatched algorithm: defaults
/// on monostate, the held value on a match, invalid_argument otherwise.
template <typename Opts>
Opts options_for(const PartitionPolicy& policy, const char* id) {
  if (std::holds_alternative<std::monostate>(policy.options)) return Opts{};
  if (const Opts* held = std::get_if<Opts>(&policy.options)) return *held;
  throw std::invalid_argument(
      std::string("partition: options variant does not match algorithm '") +
      id + "'");
}

std::vector<std::int64_t> bounds_or_capacity(const PartitionPolicy& policy,
                                             const SpeedList& speeds) {
  if (!policy.bounds.empty()) return policy.bounds;
  // Default capacity: the modelled range end of each curve (the paper's
  // point b — the size at which the processor pages itself to a halt).
  std::vector<std::int64_t> bounds;
  bounds.reserve(speeds.size());
  for (const SpeedFunction* f : speeds)
    bounds.push_back(static_cast<std::int64_t>(std::ceil(f->max_size())));
  return bounds;
}

PartitionerRegistry build_registry() {
  PartitionerRegistry reg;
  reg.add({kAlgorithmBasic,
           "angle/tangent bisection of the slope interval (paper Fig. 7-8)",
           "O(p*log n) on polynomial slopes, O(p*n) worst case", false},
          [](const SpeedList& speeds, std::int64_t n,
             const PartitionPolicy& policy) {
            auto opts = options_for<BasicBisectionOptions>(policy,
                                                          kAlgorithmBasic);
            if (policy.observer) opts.observer = policy.observer;
            if (policy.hint) opts.hint = policy.hint;
            return partition_basic(speeds, n, opts);
          });
  reg.add({kAlgorithmModified,
           "space-of-solutions bisection (paper Fig. 10-12)",
           "O(p^2*log2 n) guaranteed, shape-insensitive", false},
          [](const SpeedList& speeds, std::int64_t n,
             const PartitionPolicy& policy) {
            auto opts = options_for<ModifiedBisectionOptions>(
                policy, kAlgorithmModified);
            if (policy.observer) opts.observer = policy.observer;
            if (policy.hint) opts.hint = policy.hint;
            return partition_modified(speeds, n, opts);
          });
  reg.add({kAlgorithmCombined,
           "basic bisection with stall-triggered switch to modified "
           "(paper Fig. 15)",
           "O(p*log n) typical, O(p^2*log2 n) after the switch", false},
          [](const SpeedList& speeds, std::int64_t n,
             const PartitionPolicy& policy) {
            auto opts = options_for<CombinedOptions>(policy,
                                                     kAlgorithmCombined);
            if (policy.observer) opts.observer = policy.observer;
            if (policy.hint) opts.hint = policy.hint;
            return partition_combined(speeds, n, opts);
          });
  reg.add({kAlgorithmInterpolation,
           "safeguarded log-log regula-falsi on the total-size curve",
           "superlinear in practice, <= 2x basic worst case", false},
          [](const SpeedList& speeds, std::int64_t n,
             const PartitionPolicy& policy) {
            auto opts = options_for<InterpolationOptions>(
                policy, kAlgorithmInterpolation);
            if (policy.observer) opts.observer = policy.observer;
            if (policy.hint) opts.hint = policy.hint;
            return partition_interpolation(speeds, n, opts);
          });
  reg.add({kAlgorithmBounded,
           "clamp-and-resolve under per-processor capacity bounds",
           "<= p combined solves", true},
          [](const SpeedList& speeds, std::int64_t n,
             const PartitionPolicy& policy) {
            auto opts = options_for<BoundedOptions>(policy, kAlgorithmBounded);
            if (policy.observer) opts.inner.observer = policy.observer;
            if (policy.hint) opts.inner.hint = policy.hint;
            const std::vector<std::int64_t> bounds =
                bounds_or_capacity(policy, speeds);
            return partition_bounded(speeds, n, bounds, opts);
          });
  return reg;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  throw std::invalid_argument("parse_policy: key '" + key +
                              "' expects true/false/1/0, got '" + value + "'");
}

int parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const int v = std::stoi(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_policy: key '" + key +
                                "' expects an integer, got '" + value + "'");
  }
}

double parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_policy: key '" + key +
                                "' expects a number, got '" + value + "'");
  }
}

[[noreturn]] void throw_unknown_key(const std::string& algorithm,
                                    const std::string& key) {
  throw std::invalid_argument("parse_policy: algorithm '" + algorithm +
                              "' has no key '" + key + "'");
}

}  // namespace

void PartitionerRegistry::add(PartitionerInfo info, Runner runner) {
  if (find(info.id) != nullptr)
    throw std::logic_error("PartitionerRegistry: duplicate id '" + info.id +
                           "'");
  infos_.push_back(std::move(info));
  runners_.push_back(std::move(runner));
}

std::vector<std::string> PartitionerRegistry::ids() const {
  std::vector<std::string> out;
  out.reserve(infos_.size());
  for (const PartitionerInfo& info : infos_) out.push_back(info.id);
  return out;
}

std::string PartitionerRegistry::joined_ids() const {
  std::string out;
  for (const PartitionerInfo& info : infos_) {
    if (!out.empty()) out += ", ";
    out += info.id;
  }
  return out;
}

const PartitionerInfo* PartitionerRegistry::find(std::string_view id) const {
  for (const PartitionerInfo& info : infos_)
    if (info.id == id) return &info;
  return nullptr;
}

PartitionResult PartitionerRegistry::run(const SpeedList& speeds,
                                         std::int64_t n,
                                         const PartitionPolicy& policy) const {
  for (std::size_t i = 0; i < infos_.size(); ++i)
    if (infos_[i].id == policy.algorithm) return runners_[i](speeds, n, policy);
  throw std::invalid_argument("partition: unknown algorithm '" +
                              policy.algorithm + "' (valid: " + joined_ids() +
                              ")");
}

const PartitionerRegistry& partitioner_registry() {
  static const PartitionerRegistry registry = build_registry();
  return registry;
}

namespace {

/// The registry counters partition() feeds, resolved once: a registry
/// lookup scans every slot under the registry's one mutex, which concurrent
/// solvers would otherwise contend on for every solve.
struct PartitionCounters {
  std::vector<obs::Counter*> invocations;  ///< by partitioner registry index
  obs::Counter& speed_evals;
  obs::Counter& intersect_solves;
  obs::Counter& bracket_saturations;
  obs::Counter& warmstart_hits;
  obs::Counter& warmstart_iterations_saved;
  obs::Counter& warmstart_stale;
  obs::Counter& warmstart_probes;
};

const PartitionCounters& partition_counters() {
  static const PartitionCounters counters = [] {
    obs::MetricsRegistry& reg = obs::metrics();
    std::vector<obs::Counter*> invocations;
    for (const PartitionerInfo& info : partitioner_registry().entries())
      invocations.push_back(&reg.counter(
          std::string(obs::names::kPartitionInvocationsPrefix) + info.id));
    return PartitionCounters{
        std::move(invocations),
        reg.counter(obs::names::kPartitionSpeedEvals),
        reg.counter(obs::names::kPartitionIntersectSolves),
        reg.counter(obs::names::kPartitionBracketSaturations),
        reg.counter(obs::names::kPartitionWarmstartHits),
        reg.counter(obs::names::kPartitionWarmstartIterationsSaved),
        reg.counter(obs::names::kPartitionWarmstartStale),
        reg.counter(obs::names::kPartitionWarmstartProbes)};
  }();
  return counters;
}

/// The invocation counter for the algorithm a result reports.
obs::Counter& invocation_counter(const std::string& algorithm) {
  const PartitionCounters& counters = partition_counters();
  const std::vector<PartitionerInfo>& infos = partitioner_registry().entries();
  for (std::size_t i = 0; i < infos.size(); ++i)
    if (infos[i].id == algorithm) return *counters.invocations[i];
  return obs::metrics().counter(
      std::string(obs::names::kPartitionInvocationsPrefix) + algorithm);
}

}  // namespace

PartitionResult partition(const SpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy) {
  PartitionResult result = partitioner_registry().run(speeds, n, policy);
  // Roll the per-call PartitionStats accounting into the process-wide
  // registry: one invocation counter per algorithm id, plus the
  // SpeedFunction-boundary totals.
  const PartitionCounters& counters = partition_counters();
  invocation_counter(result.stats.algorithm).add(1);
  counters.speed_evals.add(result.stats.speed_evals);
  counters.intersect_solves.add(result.stats.intersect_solves);
  if (result.stats.bracket_saturations != 0)
    counters.bracket_saturations.add(result.stats.bracket_saturations);
  if (result.stats.warmstart == WarmStart::Hit) {
    counters.warmstart_hits.add(1);
    counters.warmstart_iterations_saved.add(result.stats.iterations_saved);
  } else if (result.stats.warmstart == WarmStart::Stale) {
    counters.warmstart_stale.add(1);
  }
  if (result.stats.warm_probes != 0)
    counters.warmstart_probes.add(result.stats.warm_probes);
  return result;
}

PartitionPolicy parse_policy(std::string_view algorithm,
                             std::span<const std::string> tokens) {
  PartitionPolicy policy;
  policy.algorithm = std::string(algorithm);
  const PartitionerInfo* info = partitioner_registry().find(policy.algorithm);
  if (info == nullptr)
    throw std::invalid_argument(
        "parse_policy: unknown algorithm '" + policy.algorithm +
        "' (valid: " + partitioner_registry().joined_ids() + ")");
  if (tokens.size() % 2 != 0)
    throw std::invalid_argument("parse_policy: key '" + tokens.back() +
                                "' is missing its value");

  // Materialize the matching options struct so parsed keys land somewhere
  // even when every value equals the default.
  if (policy.algorithm == kAlgorithmBasic)
    policy.options = BasicBisectionOptions{};
  else if (policy.algorithm == kAlgorithmModified)
    policy.options = ModifiedBisectionOptions{};
  else if (policy.algorithm == kAlgorithmCombined)
    policy.options = CombinedOptions{};
  else if (policy.algorithm == kAlgorithmInterpolation)
    policy.options = InterpolationOptions{};
  else if (policy.algorithm == kAlgorithmBounded)
    policy.options = BoundedOptions{};

  for (std::size_t i = 0; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (auto* basic = std::get_if<BasicBisectionOptions>(&policy.options)) {
      if (key == "bisect_angles")
        basic->bisect_angles = parse_bool(key, value);
      else if (key == "max_iterations")
        basic->max_iterations = parse_int(key, value);
      else
        throw_unknown_key(policy.algorithm, key);
    } else if (auto* modified =
                   std::get_if<ModifiedBisectionOptions>(&policy.options)) {
      if (key == "max_iterations")
        modified->max_iterations = parse_int(key, value);
      else
        throw_unknown_key(policy.algorithm, key);
    } else if (auto* combined = std::get_if<CombinedOptions>(&policy.options)) {
      if (key == "stall_window")
        combined->stall_window = parse_int(key, value);
      else if (key == "bisect_angles")
        combined->bisect_angles = parse_bool(key, value);
      else if (key == "max_iterations")
        combined->max_iterations = parse_int(key, value);
      else
        throw_unknown_key(policy.algorithm, key);
    } else if (auto* interp =
                   std::get_if<InterpolationOptions>(&policy.options)) {
      if (key == "safeguard_margin")
        interp->safeguard_margin = parse_double(key, value);
      else if (key == "max_iterations")
        interp->max_iterations = parse_int(key, value);
      else
        throw_unknown_key(policy.algorithm, key);
    } else if (auto* bounded = std::get_if<BoundedOptions>(&policy.options)) {
      if (key == "stall_window")
        bounded->inner.stall_window = parse_int(key, value);
      else if (key == "bisect_angles")
        bounded->inner.bisect_angles = parse_bool(key, value);
      else if (key == "max_iterations")
        bounded->inner.max_iterations = parse_int(key, value);
      else
        throw_unknown_key(policy.algorithm, key);
    }
  }
  return policy;
}

std::string format_policy(const PartitionPolicy& policy) {
  std::ostringstream out;
  out << policy.algorithm;
  const auto emit_combined_keys = [&out](const CombinedOptions& opts) {
    const CombinedOptions defaults;
    if (opts.stall_window != defaults.stall_window)
      out << " stall_window " << opts.stall_window;
    if (opts.bisect_angles != defaults.bisect_angles)
      out << " bisect_angles " << (opts.bisect_angles ? "true" : "false");
    if (opts.max_iterations != defaults.max_iterations)
      out << " max_iterations " << opts.max_iterations;
  };
  if (const auto* basic = std::get_if<BasicBisectionOptions>(&policy.options)) {
    const BasicBisectionOptions defaults;
    if (basic->bisect_angles != defaults.bisect_angles)
      out << " bisect_angles " << (basic->bisect_angles ? "true" : "false");
    if (basic->max_iterations != defaults.max_iterations)
      out << " max_iterations " << basic->max_iterations;
  } else if (const auto* modified =
                 std::get_if<ModifiedBisectionOptions>(&policy.options)) {
    const ModifiedBisectionOptions defaults;
    if (modified->max_iterations != defaults.max_iterations)
      out << " max_iterations " << modified->max_iterations;
  } else if (const auto* combined =
                 std::get_if<CombinedOptions>(&policy.options)) {
    emit_combined_keys(*combined);
  } else if (const auto* interp =
                 std::get_if<InterpolationOptions>(&policy.options)) {
    const InterpolationOptions defaults;
    if (interp->safeguard_margin != defaults.safeguard_margin)
      out << " safeguard_margin " << interp->safeguard_margin;
    if (interp->max_iterations != defaults.max_iterations)
      out << " max_iterations " << interp->max_iterations;
  } else if (const auto* bounded =
                 std::get_if<BoundedOptions>(&policy.options)) {
    emit_combined_keys(bounded->inner);
  }
  return out.str();
}

}  // namespace fpm::core
