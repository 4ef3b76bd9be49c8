#include "core/policy.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/compiled.hpp"
#include "core/detail/search_state.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {

namespace {

/// One key of the policy grammar: its spelling, the PartitionPolicy member
/// it sets, the ids that accept it, and the closed range its value must lie
/// in (ignored for booleans).
struct PolicyKey {
  using Member =
      std::variant<bool PartitionPolicy::*, int PartitionPolicy::*,
                   double PartitionPolicy::*,
                   std::optional<int> PartitionPolicy::*>;
  const char* name;
  Member member;
  std::vector<std::string_view> ids;
  double min = 0.0;
  double max = 0.0;
};

const std::vector<PolicyKey>& policy_keys() {
  constexpr double kIntMax = std::numeric_limits<int>::max();
  static const std::vector<PolicyKey> keys{
      {"stall_window", &PartitionPolicy::stall_window,
       {kAlgorithmCombined, kAlgorithmBounded}, 1.0, kIntMax},
      {"bisect_angles", &PartitionPolicy::bisect_angles,
       {kAlgorithmBasic, kAlgorithmCombined, kAlgorithmBounded}},
      {"safeguard_margin", &PartitionPolicy::safeguard_margin,
       {kAlgorithmInterpolation}, 0.0, 0.5},
      {"max_iterations", &PartitionPolicy::max_iterations,
       {kAlgorithmBasic, kAlgorithmModified, kAlgorithmCombined,
        kAlgorithmInterpolation, kAlgorithmBounded},
       0.0, kIntMax},
  };
  return keys;
}

bool accepts(const PolicyKey& key, std::string_view id) {
  return std::ranges::find(key.ids, id) != key.ids.end();
}

/// Shortest %g text (at least the stream default of 6 significant digits)
/// that parses back to exactly `value`.
std::string format_number(double value) {
  char buf[32];
  for (int precision = 6;; ++precision) {
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                         std::chars_format::general, precision);
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == value || precision >= 17) return std::string(buf, end);
  }
}

/// Parses an int or a double, then checks it is finite and inside the
/// key's range.
template <typename T>
T parse_number(const PolicyKey& key, const std::string& text) {
  T value{};
  try {
    std::size_t used = 0;
    if constexpr (std::is_same_v<T, int>)
      value = std::stoi(text, &used);
    else
      value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
  } catch (const std::exception&) {
    throw std::invalid_argument(
        "parse_policy: key '" + std::string(key.name) + "' expects " +
        (std::is_same_v<T, int> ? "an integer" : "a number") + ", got '" +
        text + "'");
  }
  const double v = static_cast<double>(value);
  if (!std::isfinite(v) || v < key.min || v > key.max)
    throw std::invalid_argument(
        "parse_policy: key '" + std::string(key.name) +
        "' expects a value in [" + format_number(key.min) + ", " +
        format_number(key.max) + "], got '" + text + "'");
  return value;
}

// Parsing and printing per member type, picked by overload resolution.
void read_value(const PolicyKey& key, const std::string& text, bool& field) {
  if (text == "true" || text == "1")
    field = true;
  else if (text == "false" || text == "0")
    field = false;
  else
    throw std::invalid_argument("parse_policy: key '" +
                                std::string(key.name) +
                                "' expects true/false/1/0, got '" + text + "'");
}
template <typename T>
void read_value(const PolicyKey& key, const std::string& text, T& field) {
  field = parse_number<T>(key, text);
}
void read_value(const PolicyKey& key, const std::string& text,
                std::optional<int>& field) {
  field = parse_number<int>(key, text);
}

/// The value an algorithm runs with: an unset field means the algorithm's
/// registry default.
template <typename T>
T effective(const T& value, const PartitionerInfo& /*info*/) {
  return value;
}
int effective(const std::optional<int>& value, const PartitionerInfo& info) {
  return value.value_or(info.max_iterations);
}

std::string value_text(bool value) { return value ? "true" : "false"; }
std::string value_text(int value) { return std::to_string(value); }
std::string value_text(double value) { return format_number(value); }

[[noreturn]] void throw_unknown_key(const std::string& algorithm,
                                    const std::string& key) {
  throw std::invalid_argument("parse_policy: algorithm '" + algorithm +
                              "' has no key '" + key + "'");
}

}  // namespace

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

const PartitionerInfo& PartitionerRegistry::at(std::string_view id) const {
  if (const PartitionerInfo* info = find(id)) return *info;
  throw std::invalid_argument("partition: unknown algorithm '" +
                              std::string(id) + "' (valid: " + joined_ids() +
                              ")");
}

PartitionResult PartitionerRegistry::run(std::string_view id,
                                         const SpeedList& speeds,
                                         std::int64_t n,
                                         const PartitionPolicy& policy) const {
  const PartitionerInfo& info = at(id);
  return info.search(info.start, CompiledSpeedList::compile(speeds), n,
                     policy);
}

PartitionResult detail::partition_from(Bracket start, const SpeedList& speeds,
                                       std::int64_t n,
                                       const PartitionPolicy& policy) {
  return partitioner_registry().at(policy.algorithm).search(
      start, CompiledSpeedList::compile(speeds), n, policy);
}

const PartitionerRegistry& partitioner_registry() {
  static const PartitionerRegistry registry({
      {kAlgorithmBasic,
       "angle/tangent bisection of the slope interval (paper Fig. 7-8)",
       "O(p*log n) on polynomial slopes, O(p*n) worst case", false,
       kSearchIterationCap, Bracket::Figure18, &detail::basic_from},
      {kAlgorithmModified, "space-of-solutions bisection (paper Fig. 10-12)",
       "O(p^2*log2 n) guaranteed, shape-insensitive", false,
       kGuaranteedIterationCap, Bracket::Figure18, &detail::modified_from},
      {kAlgorithmCombined,
       "basic bisection with stall-triggered switch to modified "
       "(paper Fig. 15)",
       "O(p*log n) typical, O(p^2*log2 n) after the switch", false,
       kGuaranteedIterationCap, Bracket::Secant, &detail::combined_from},
      {kAlgorithmInterpolation,
       "safeguarded log-log secant on the total-size curve",
       "superlinear in practice, <= 2x basic worst case", false,
       kSearchIterationCap, Bracket::Secant, &detail::interpolation_from},
      {kAlgorithmBounded,
       "clamp-and-resolve under per-processor capacity bounds",
       "<= p combined solves", true, kGuaranteedIterationCap,
       Bracket::Secant, &detail::bounded_from},
  });
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
  obs::Counter& figure18_lines;
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
        reg.counter(obs::names::kPartitionBracketFigure18Lines),
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

PartitionResult partition(const CompiledSpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy) {
  const PartitionerInfo& info = partitioner_registry().at(policy.algorithm);
  PartitionResult result = info.search(info.start, speeds, n, policy);
  // Roll the per-call PartitionStats accounting into the process-wide
  // registry: one invocation counter per algorithm id, plus the
  // SpeedFunction-boundary totals.
  const PartitionCounters& counters = partition_counters();
  invocation_counter(result.stats.algorithm).add(1);
  counters.speed_evals.add(result.stats.speed_evals);
  counters.intersect_solves.add(result.stats.intersect_solves);
  if (result.stats.bracket_saturations != 0)
    counters.bracket_saturations.add(result.stats.bracket_saturations);
  if (result.stats.figure18_lines != 0)
    counters.figure18_lines.add(result.stats.figure18_lines);
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

PartitionResult partition(const SpeedList& speeds, std::int64_t n,
                          const PartitionPolicy& policy) {
  if (const CompiledSpeedList* installed = precompiled_match(speeds))
    return partition(*installed, n, policy);
  return partition(CompiledSpeedList::compile(speeds), n, policy);
}

PartitionPolicy parse_policy(std::string_view algorithm,
                             std::span<const std::string> tokens) {
  PartitionPolicy policy;
  policy.algorithm = std::string(algorithm);
  if (!partitioner_registry().contains(policy.algorithm))
    throw std::invalid_argument(
        "parse_policy: unknown algorithm '" + policy.algorithm +
        "' (valid: " + partitioner_registry().joined_ids() + ")");
  if (tokens.size() % 2 != 0)
    throw std::invalid_argument("parse_policy: key '" + tokens.back() +
                                "' is missing its value");

  for (std::size_t i = 0; i + 1 < tokens.size(); i += 2) {
    const std::string& name = tokens[i];
    const std::string& value = tokens[i + 1];
    const PolicyKey* key = nullptr;
    for (const PolicyKey& candidate : policy_keys())
      if (candidate.name == name && accepts(candidate, policy.algorithm))
        key = &candidate;
    if (key == nullptr) throw_unknown_key(policy.algorithm, name);
    std::visit([&](auto member) { read_value(*key, value, policy.*member); },
               key->member);
  }
  return policy;
}

std::string format_policy(const PartitionPolicy& policy) {
  std::string out = policy.algorithm;
  const PartitionerInfo* info = partitioner_registry().find(policy.algorithm);
  if (info == nullptr) return out;
  const PartitionPolicy defaults;
  for (const PolicyKey& key : policy_keys()) {
    if (!accepts(key, policy.algorithm)) continue;
    std::visit(
        [&](auto member) {
          const auto value = effective(policy.*member, *info);
          if (value == effective(defaults.*member, *info)) return;
          out += ' ';
          out += key.name;
          out += ' ';
          out += value_text(value);
        },
        key.member);
  }
  return out;
}

}  // namespace fpm::core
