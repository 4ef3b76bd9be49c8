#include "core/compiled.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <typeinfo>

#include "core/detail/parallel.hpp"
#include "core/detail/simd.hpp"
#include "core/detail/speed_kernels.hpp"
#include "core/piecewise.hpp"
#include "obs/metrics.hpp"

namespace fpm::core {
namespace {

// SplitMix64 step: h' = F((h ^ v) + gamma) with F the SplitMix64 finalizer
// (two xor-shift-multiply rounds and a final xor-shift). F and the add are
// bijections, so for a fixed h the step is a bijection of v, and for a
// fixed v a bijection of h. Parameters are hashed through their bit
// patterns (not values) so that -0.0 vs 0.0 and NaN payloads cannot
// collide two different models onto one cache key.
inline std::uint64_t splitmix_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  return splitmix_finalize((h ^ v) + kGamma);
}

/// The fingerprint state: four independent SplitMix64 chains, so a model
/// walk pays one chain step's latency per four words instead of per word.
/// Each word goes to a chain fixed by its slot in the entry (hash_entry),
/// so two lists of one length that differ in exactly one field (one
/// parameter, one breakpoint coordinate, a family or wrap tag) feed every
/// other word to the same chain at the same step. The one differing word
/// changes one chain step, which is a bijection of v; every later step on
/// that chain is a bijection of h for its (equal) word. So that chain's
/// final state differs while the other three end equal.
/// fingerprint() folds the four states in order through hash_mix, a chain
/// of bijections in each state, so the fingerprints differ too.
///
/// check() is the second 64-bit word of the cache key. It folds the states
/// in the reverse order from another seed, then each chain's running sum
/// of its pre-finalizer values (h ^ v) + gamma. The sums matter when two
/// lists collide inside one chain: equal chain states make both folds
/// equal, but the sums took different values on the way, and match only
/// by a second, roughly independent 64-bit coincidence.
class ChainHash {
 public:
  /// The state before the first entry: the list length on chain 0.
  explicit ChainHash(std::size_t size) {
    step<0>(static_cast<std::uint64_t>(size));
  }

  /// Folds `v` into chain K.
  template <int K>
  void step(std::uint64_t v) {
    const std::uint64_t z = (h_[K] ^ v) + kGamma;
    sum_[K] += z;
    h_[K] = splitmix_finalize(z);
  }
  template <int K>
  void step(double v) {
    step<K>(std::bit_cast<std::uint64_t>(v));
  }

  std::uint64_t fingerprint() const {
    std::uint64_t f = kFingerprintSeed;
    for (int k = 0; k < 4; ++k) f = hash_mix(f, h_[k]);
    return f;
  }

  std::uint64_t check() const {
    std::uint64_t c = kCheckSeed;
    for (int k = 3; k >= 0; --k) c = hash_mix(c, h_[k]);
    for (int k = 0; k < 4; ++k) c = hash_mix(c, sum_[k]);
    return c;
  }

 private:
  static constexpr std::uint64_t kFingerprintSeed = 0x6a09e667f3bcc908ULL;
  static constexpr std::uint64_t kCheckSeed = 0xbb67ae8584caa73bULL;
  // Distinct chain seeds (SHA-512 initial words), so the chains never
  // start from one state.
  std::uint64_t h_[4] = {0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
                         0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL};
  std::uint64_t sum_[4] = {0, 0, 0, 0};
};

std::atomic<std::size_t> g_parallel_threshold{1024};

/// The SIMD backend selector: the vector kernel table every sweep runs on,
/// or nullptr for the bit-exact scalar mode ("off", or an FPM_SIMD=OFF
/// build). One atomic, written by force_simd_backend and read once per
/// sweep.
std::atomic<const detail::simd::SimdKernels*> g_kernels{nullptr};

/// The selector value a backend name stands for: "auto" is the best
/// variant this CPU supports, "off" the scalar mode. Throws
/// std::invalid_argument for a variant that is not compiled in or that
/// this CPU cannot run.
const detail::simd::SimdKernels* kernels_for(std::string_view name) {
  if (name == "auto") return detail::simd::resolved_simd_kernels();
  if (name == "off") return nullptr;
  const detail::simd::SimdKernels* k = detail::simd::find_simd_variant(name);
  if (k == nullptr) {
    std::string msg = "simd backend '";
    msg += name;
    msg += "' is not compiled into this build (available:";
    for (const detail::simd::SimdKernels* v :
         detail::simd::compiled_simd_variants()) {
      msg += ' ';
      msg += v->name;
    }
    msg += " auto off)";
    throw std::invalid_argument(msg);
  }
  if (!detail::simd::simd_variant_supported(*k)) {
    std::string msg = "simd backend '";
    msg += name;
    msg += "' is compiled in but not supported by this CPU";
    throw std::invalid_argument(msg);
  }
  return k;
}

/// Sets the selector's initial value exactly once, before its first read
/// or write: the FPM_SIMD_BACKEND environment value when it names a usable
/// backend, auto dispatch otherwise. An invalid value is ignored here (the
/// library keeps auto dispatch) and rejected loudly by fpmtool, which
/// validates the variable itself. force_simd_backend runs this before it
/// stores, so an explicit call overrides the environment whichever comes
/// first; the initialisation calls kernels_for, never force_simd_backend,
/// so it cannot recurse into itself.
inline void init_backend_once() noexcept {
  static const bool done = [] {
    const detail::simd::SimdKernels* k = detail::simd::resolved_simd_kernels();
    if (const char* env = std::getenv("FPM_SIMD_BACKEND")) {
      try {
        k = kernels_for(env);
      } catch (const std::exception&) {
      }
    }
    g_kernels.store(k, std::memory_order_relaxed);
    return true;
  }();
  (void)done;
}

/// The vector kernel table the sweeps should use right now, or nullptr
/// for the bit-exact per-entry path.
inline const detail::simd::SimdKernels* active_kernels() noexcept {
  init_backend_once();
  return g_kernels.load(std::memory_order_relaxed);
}

/// Thread-local precompiled hint installed by PrecompiledGuard.
thread_local const SpeedList* g_precompiled_speeds = nullptr;
thread_local const CompiledSpeedList* g_precompiled_list = nullptr;

/// The shared classification of one speed function: which family/wrap it
/// compiles to, its (wrapped) max_size and the scalar parameters, with
/// typed pointers for the families whose data lives in pools. Both
/// compile() and fingerprint_of() run exactly this walk and fold it through
/// hash_entry(), so the fingerprint of a list never depends on which of the
/// two computed it.
struct Classified {
  CompiledSpeedList::Family family = CompiledSpeedList::Family::Generic;
  CompiledSpeedList::Wrap wrap = CompiledSpeedList::Wrap::None;
  double wrap_param = 1.0;
  double max_size = 0.0;
  double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
  std::uint32_t count = 0;
  const UnimodalSpeed* unimodal = nullptr;
  const SteppedSpeed* stepped = nullptr;
  const PiecewiseLinearSpeed* piecewise = nullptr;
};

/// Every concrete type classify() understands. All of them are final, so
/// an exact dynamic-type match makes the same decision a dynamic_cast
/// chain would, at the cost of one table scan.
enum class Kind : std::uint8_t {
  Unknown,
  Constant,
  LinearDecay,
  PowerDecay,
  ExpDecay,
  Unimodal,
  Stepped,
  Piecewise,
  Scaled,
  Granular,
  GranularView,
};

struct KindEntry {
  const std::type_info* type;
  Kind kind;
};

constexpr KindEntry kKinds[] = {
    {&typeid(PiecewiseLinearSpeed), Kind::Piecewise},
    {&typeid(ConstantSpeed), Kind::Constant},
    {&typeid(LinearDecaySpeed), Kind::LinearDecay},
    {&typeid(PowerDecaySpeed), Kind::PowerDecay},
    {&typeid(ExpDecaySpeed), Kind::ExpDecay},
    {&typeid(UnimodalSpeed), Kind::Unimodal},
    {&typeid(SteppedSpeed), Kind::Stepped},
    {&typeid(ScaledSpeed), Kind::Scaled},
    {&typeid(GranularSpeed), Kind::Granular},
    {&typeid(GranularSpeedView), Kind::GranularView},
};

Kind kind_of(const SpeedFunction& f) {
  const std::type_info& type = typeid(f);
  for (const KindEntry& k : kKinds)
    if (k.type == &type) return k.kind;
  // The same type seen through a second type_info object (possible across
  // shared objects) still compares equal by name.
  for (const KindEntry& k : kKinds)
    if (*k.type == type) return k.kind;
  return Kind::Unknown;
}

template <typename T>
const T& as(const SpeedFunction& f) {
  return static_cast<const T&>(f);
}

Classified classify(const SpeedFunction& f) {
  using Family = CompiledSpeedList::Family;
  using Wrap = CompiledSpeedList::Wrap;
  Classified out;
  out.max_size = f.max_size();
  const SpeedFunction* inner = &f;
  Kind kind = kind_of(f);
  switch (kind) {
    case Kind::Scaled:
      out.wrap = Wrap::Scaled;
      out.wrap_param = as<ScaledSpeed>(f).factor();
      inner = &as<ScaledSpeed>(f).base();
      break;
    case Kind::Granular:
      out.wrap = Wrap::Granular;
      out.wrap_param = as<GranularSpeed>(f).elements_per_item();
      inner = &as<GranularSpeed>(f).base();
      break;
    case Kind::GranularView:
      out.wrap = Wrap::Granular;
      out.wrap_param = as<GranularSpeedView>(f).elements_per_item();
      inner = &as<GranularSpeedView>(f).base();
      break;
    default:
      break;
  }
  if (inner != &f) kind = kind_of(*inner);
  switch (kind) {
    case Kind::Constant:
      out.family = Family::Constant;
      out.a = as<ConstantSpeed>(*inner).s0();
      break;
    case Kind::LinearDecay: {
      const auto& l = as<LinearDecaySpeed>(*inner);
      out.family = Family::LinearDecay;
      out.a = l.s0();
      out.b = l.max_size();
      out.c = l.floor_speed();
      break;
    }
    case Kind::PowerDecay: {
      const auto& pd = as<PowerDecaySpeed>(*inner);
      out.family = Family::PowerDecay;
      out.a = pd.s0();
      out.b = pd.x0();
      out.c = pd.exponent();
      out.d = pd.max_size();
      break;
    }
    case Kind::ExpDecay: {
      const auto& ed = as<ExpDecaySpeed>(*inner);
      out.family = Family::ExpDecay;
      out.a = ed.s0();
      out.b = ed.lambda();
      out.d = ed.max_size();
      break;
    }
    case Kind::Unimodal: {
      const auto& u = as<UnimodalSpeed>(*inner);
      out.family = Family::Unimodal;
      out.a = u.s_low();
      out.b = u.s_peak();
      out.c = u.x_peak();
      out.count = 2;
      out.unimodal = &u;
      break;
    }
    case Kind::Stepped: {
      const auto& st = as<SteppedSpeed>(*inner);
      out.family = Family::Stepped;
      out.a = st.s0();
      out.count = static_cast<std::uint32_t>(st.steps().size());
      out.stepped = &st;
      break;
    }
    case Kind::Piecewise: {
      const auto& pw = as<PiecewiseLinearSpeed>(*inner);
      out.family = Family::Piecewise;
      out.a = pw.floor_speed();
      out.b = pw.tail_slope();
      out.count = static_cast<std::uint32_t>(pw.points().size());
      out.piecewise = &pw;
      break;
    }
    default: {
      // Unknown family (or a wrapper around one, or nested wrappers): keep
      // the whole object behind the virtual interface.
      Classified generic;
      generic.max_size = out.max_size;
      return generic;
    }
  }
  return out;
}

/// Classifies `f`, rejecting null entries.
Classified classify_entry(const SpeedFunction* f) {
  if (f == nullptr)
    throw std::invalid_argument("CompiledSpeedList: null speed function");
  return classify(*f);
}

/// Folds one classified entry into `hash`. Generic entries hash their
/// object address (identity semantics); every other entry hashes its
/// family and wrap, its parameter bit patterns, then its pool data. Every
/// word has a fixed chain: the header's eight words take two steps on each
/// chain, piecewise points go two per step across all four chains (an odd
/// last point on chains 0 and 1), and each step of a stepped model goes
/// (at, to, width) across chains 0-2.
inline void hash_entry(ChainHash& hash, const SpeedFunction* f,
                       const Classified& cl) {
  using Family = CompiledSpeedList::Family;
  hash.step<0>((static_cast<std::uint64_t>(cl.family) << 8) |
               static_cast<std::uint64_t>(cl.wrap));
  if (cl.family == Family::Generic) {
    hash.step<1>(
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(f)));
    return;
  }
  hash.step<1>(cl.wrap_param);
  hash.step<2>(cl.max_size);
  hash.step<3>(static_cast<std::uint64_t>(cl.count));
  hash.step<0>(cl.a);
  hash.step<1>(cl.b);
  hash.step<2>(cl.c);
  hash.step<3>(cl.d);
  switch (cl.family) {
    case Family::Unimodal:
      hash.step<0>(cl.unimodal->decay_x0());
      hash.step<1>(cl.unimodal->decay_exponent());
      break;
    case Family::Stepped:
      for (const SteppedSpeed::Step& st : cl.stepped->steps()) {
        hash.step<0>(st.at);
        hash.step<1>(st.to);
        hash.step<2>(st.width);
      }
      break;
    case Family::Piecewise: {
      const auto pts = cl.piecewise->points();
      std::size_t i = 0;
      for (; i + 1 < pts.size(); i += 2) {
        hash.step<0>(pts[i].size);
        hash.step<1>(pts[i].speed);
        hash.step<2>(pts[i + 1].size);
        hash.step<3>(pts[i + 1].speed);
      }
      if (i < pts.size()) {
        hash.step<0>(pts[i].size);
        hash.step<1>(pts[i].speed);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace

PrecompiledGuard::PrecompiledGuard(const SpeedList& speeds,
                                   const CompiledSpeedList& compiled) noexcept
    : prev_speeds_(g_precompiled_speeds), prev_compiled_(g_precompiled_list) {
  g_precompiled_speeds = &speeds;
  g_precompiled_list = &compiled;
}

PrecompiledGuard::~PrecompiledGuard() {
  g_precompiled_speeds = prev_speeds_;
  g_precompiled_list = prev_compiled_;
}

const CompiledSpeedList* precompiled_match(const SpeedList& speeds) noexcept {
  if (g_precompiled_speeds == nullptr) return nullptr;
  if (g_precompiled_speeds != &speeds && *g_precompiled_speeds != speeds)
    return nullptr;
  return g_precompiled_list;
}

bool simd_kernels_available() noexcept {
  return detail::simd::resolved_simd_kernels() != nullptr;
}

namespace {

SimdBackend backend_from_name(const char* name) noexcept {
  if (std::strcmp(name, "avx512") == 0) return SimdBackend::Avx512;
  if (std::strcmp(name, "avx2") == 0) return SimdBackend::Avx2;
  if (std::strcmp(name, "neon") == 0) return SimdBackend::Neon;
  return SimdBackend::Portable;
}

}  // namespace

SimdBackend active_simd_backend() noexcept {
  const detail::simd::SimdKernels* kern = active_kernels();
  if (kern == nullptr) return SimdBackend::Disabled;
  return backend_from_name(kern->name);
}

const char* to_string(SimdBackend backend) noexcept {
  switch (backend) {
    case SimdBackend::Portable:
      return "portable";
    case SimdBackend::Avx2:
      return "avx2";
    case SimdBackend::Avx512:
      return "avx512";
    case SimdBackend::Neon:
      return "neon";
    case SimdBackend::Disabled:
      break;
  }
  return "off";
}

void force_simd_backend(std::string_view name) {
  const detail::simd::SimdKernels* k = kernels_for(name);
  init_backend_once();
  g_kernels.store(k, std::memory_order_relaxed);
}

std::size_t parallel_intersect_threshold() noexcept {
  return g_parallel_threshold.load(std::memory_order_relaxed);
}

void set_parallel_intersect_threshold(std::size_t entries) noexcept {
  g_parallel_threshold.store(entries, std::memory_order_relaxed);
}

CompiledSpeedList CompiledSpeedList::compile(const SpeedList& speeds) {
  // Batch plan for intersect_all(): the unwrapped closed-form families go
  // to SoA parameter lanes, vetted unwrapped Unimodal/Stepped entries to
  // the iterative lanes; everything else (wrapped entries, irregular
  // pool-backed entries, Piecewise, Generic) keeps the per-entry dispatch.
  // Vetting admits only parameters squarely inside the vector kernels'
  // vexp/vlog domains — anything exotic (non-normal scales, negative
  // exponents, too many steps) is a compile-time punt to batch_other_, so
  // the only runtime punt those lanes need is the beyond-max_size bracket
  // expansion.
  const auto pos_normal = [](double v) { return std::isnormal(v) && v > 0.0; };
  const auto batchable = [&pos_normal](const Classified& cl) {
    if (cl.wrap != Wrap::None) return false;
    switch (cl.family) {
      case Family::Constant:
      case Family::LinearDecay:
      case Family::PowerDecay:
      case Family::ExpDecay:
        return true;
      case Family::Unimodal: {
        const double k = cl.unimodal->decay_exponent();
        return pos_normal(cl.c) && pos_normal(cl.unimodal->decay_x0()) &&
               pos_normal(cl.max_size) && std::isfinite(k) && k >= 0.0 &&
               std::isfinite(cl.a) && cl.a >= 0.0 && std::isfinite(cl.b) &&
               cl.b > 0.0;
      }
      case Family::Stepped: {
        bool safe = pos_normal(cl.a) && pos_normal(cl.max_size) &&
                    cl.count <= kMaxVecSteps;
        for (const SteppedSpeed::Step& st : cl.stepped->steps())
          safe = safe && std::isfinite(st.at) && pos_normal(st.to) &&
                 pos_normal(st.width);
        return safe;
      }
      default:
        return false;
    }
  };

  // Pass 1, the classification walk: fill entries_, fold the fingerprint,
  // and count every lane and pool, so that pass 2 can size each vector
  // once, at its final padded length, instead of regrowing it.
  CompiledSpeedList list;
  list.entries_.reserve(speeds.size());
  ChainHash hash(speeds.size());
  constexpr auto kFamilies = static_cast<std::size_t>(Family::Piecewise) + 1;
  std::size_t lane_size[kFamilies] = {};  // batched entries per Family
  std::size_t aux = 0, steps = 0, points = 0, nslots = 0;
  for (const SpeedFunction* f : speeds) {
    const Classified cl = classify_entry(f);
    hash_entry(hash, f, cl);
    Entry e;
    e.base = f;
    e.family = cl.family;
    e.wrap = cl.wrap;
    e.wrap_param = cl.wrap_param;
    e.max_size = cl.max_size;
    e.a = cl.a;
    e.b = cl.b;
    e.c = cl.c;
    e.d = cl.d;
    e.count = cl.count;
    switch (cl.family) {
      case Family::Unimodal:
        e.offset = static_cast<std::uint32_t>(aux);
        aux += 2;
        break;
      case Family::Stepped:
        e.offset = static_cast<std::uint32_t>(steps);
        steps += cl.count;
        break;
      case Family::Piecewise:
        e.offset = static_cast<std::uint32_t>(points);
        points += cl.count;
        break;
      case Family::Generic:
        ++list.generic_entries_;
        break;
      default:
        break;
    }
    e.batched = batchable(cl);
    if (e.batched) {
      ++lane_size[static_cast<std::size_t>(cl.family)];
      if (cl.family == Family::Stepped)
        nslots = std::max<std::size_t>(nslots, cl.count);
    }
    list.entries_.push_back(e);
  }
  list.fingerprint_ = hash.fingerprint();

  // Pass 2: reserve every pool and lane column once, then fill them in
  // entry order. Lane columns are reserved at their padded size (see
  // below), so neither the fill nor the padding reallocates.
  const auto lane_count = [&lane_size](Family family) {
    return lane_size[static_cast<std::size_t>(family)];
  };
  std::size_t batched = 0;
  for (const std::size_t n : lane_size) batched += n;
  list.batch_other_.reserve(list.entries_.size() - batched);
  list.aux_.reserve(aux);
  list.steps_.reserve(steps);
  list.px_.reserve(points);
  list.ps_.reserve(points);
  list.pm_.reserve(points);
  const auto reserve_lane = [&lane_count](BatchLane& lane, Family family,
                                          auto... columns) {
    const std::size_t n = lane_count(family);
    if (n == 0) return;
    lane.idx.reserve(n);
    (((lane.*columns).reserve(detail::simd::padded_size(n))), ...);
  };
  reserve_lane(list.lane_constant_, Family::Constant, &BatchLane::a);
  reserve_lane(list.lane_linear_, Family::LinearDecay, &BatchLane::a,
               &BatchLane::b, &BatchLane::c);
  reserve_lane(list.lane_power_, Family::PowerDecay, &BatchLane::a,
               &BatchLane::b, &BatchLane::c, &BatchLane::d);
  reserve_lane(list.lane_exp_, Family::ExpDecay, &BatchLane::a,
               &BatchLane::b, &BatchLane::d);
  reserve_lane(list.lane_unimodal_, Family::Unimodal, &BatchLane::a,
               &BatchLane::b, &BatchLane::c, &BatchLane::d, &BatchLane::e,
               &BatchLane::f);
  // The stepped lane's slot-major slabs start as identity steps (at=+inf,
  // factor == 1 exactly) at their final nslots × stride shape.
  SteppedLane& sl = list.lane_stepped_;
  if (const std::size_t n = lane_count(Family::Stepped); n != 0) {
    sl.idx.reserve(n);
    sl.stride = detail::simd::padded_size(n);
    sl.nslots = nslots;
    sl.a.reserve(sl.stride);
    sl.f.reserve(sl.stride);
    sl.at.assign(sl.nslots * sl.stride,
                 std::numeric_limits<double>::infinity());
    sl.ratio.assign(sl.nslots * sl.stride, 1.0);
    sl.width.assign(sl.nslots * sl.stride, 1.0);
  }

  for (std::size_t i = 0; i < list.entries_.size(); ++i) {
    const Entry& e = list.entries_[i];
    const auto dst = static_cast<std::uint32_t>(i);
    // Pool data, appended in entry order so it lands at the offsets pass 1
    // assigned. Only pool-backed entries are classified a second time.
    switch (e.family) {
      case Family::Unimodal: {
        const UnimodalSpeed& u = *classify(*e.base).unimodal;
        list.aux_.push_back(u.decay_x0());
        list.aux_.push_back(u.decay_exponent());
        break;
      }
      case Family::Stepped: {
        const auto& st = classify(*e.base).stepped->steps();
        list.steps_.insert(list.steps_.end(), st.begin(), st.end());
        break;
      }
      case Family::Piecewise: {
        const auto pts = classify(*e.base).piecewise->points();
        for (const SpeedPoint& p : pts) {
          list.px_.push_back(p.size);
          list.ps_.push_back(p.speed);
        }
        // Segment slopes computed with the exact expression of
        // PiecewiseLinearSpeed::intersect, so the compiled segment solve
        // feeds piecewise_segment_intersect the same m it would compute per
        // call. One padding slot per function keeps pm_ aligned with
        // px_/ps_.
        for (std::size_t k = 1; k < pts.size(); ++k)
          list.pm_.push_back((pts[k].speed - pts[k - 1].speed) /
                             (pts[k].size - pts[k - 1].size));
        list.pm_.push_back(0.0);
        break;
      }
      default:
        break;
    }
    if (!e.batched) {
      list.batch_other_.push_back(dst);
      continue;
    }
    switch (e.family) {
      case Family::Constant:
        list.lane_constant_.idx.push_back(dst);
        list.lane_constant_.a.push_back(e.a);
        break;
      case Family::LinearDecay:
        list.lane_linear_.idx.push_back(dst);
        list.lane_linear_.a.push_back(e.a);
        list.lane_linear_.b.push_back(e.b);
        list.lane_linear_.c.push_back(e.c);
        break;
      case Family::PowerDecay:
        list.lane_power_.idx.push_back(dst);
        list.lane_power_.a.push_back(e.a);
        list.lane_power_.b.push_back(e.b);
        list.lane_power_.c.push_back(e.c);
        list.lane_power_.d.push_back(e.d);
        break;
      case Family::ExpDecay:
        list.lane_exp_.idx.push_back(dst);
        list.lane_exp_.a.push_back(e.a);
        list.lane_exp_.b.push_back(e.b);
        list.lane_exp_.d.push_back(e.d);
        break;
      case Family::Unimodal:
        list.lane_unimodal_.idx.push_back(dst);
        list.lane_unimodal_.a.push_back(e.a);
        list.lane_unimodal_.b.push_back(e.b);
        list.lane_unimodal_.c.push_back(e.c);
        list.lane_unimodal_.d.push_back(list.aux_[e.offset]);
        list.lane_unimodal_.e.push_back(list.aux_[e.offset + 1]);
        list.lane_unimodal_.f.push_back(e.max_size);
        break;
      case Family::Stepped: {
        const std::size_t j = sl.idx.size();
        sl.idx.push_back(dst);
        sl.a.push_back(e.a);
        sl.f.push_back(e.max_size);
        double level = e.a;
        for (std::uint32_t s = 0; s < e.count; ++s) {
          const SteppedSpeed::Step& st = list.steps_[e.offset + s];
          const std::size_t off = s * sl.stride + j;
          sl.at[off] = st.at;
          sl.ratio[off] = st.to / level;
          sl.width[off] = st.width;
          level = st.to;
        }
        break;
      }
      default:
        break;
    }
  }
  // Pad every lane column to kMaxLanes (the widest compiled vector width)
  // by duplicating the last real element: whichever backend the runtime
  // dispatch picks then streams whole registers with the pad slots
  // computing harmless in-domain values that are never scattered (idx
  // keeps the real count, and the per-entry path loops over it).
  const auto pad = [](auto& col, std::size_t padded) {
    if (!col.empty()) col.resize(padded, col.back());
  };
  for (BatchLane* lane : {&list.lane_constant_, &list.lane_linear_,
                          &list.lane_power_, &list.lane_exp_,
                          &list.lane_unimodal_}) {
    const std::size_t padded = detail::simd::padded_size(lane->idx.size());
    for (BatchLane::Column* col :
         {&lane->a, &lane->b, &lane->c, &lane->d, &lane->e, &lane->f})
      pad(*col, padded);
  }
  pad(sl.a, sl.stride);
  pad(sl.f, sl.stride);
  return list;
}

std::uint64_t CompiledSpeedList::fingerprint_of(const SpeedList& speeds,
                                                bool* generic,
                                                std::uint64_t* check) {
  // The hash compile() folds during its own walk, without the pools:
  // classification only reads the objects (no allocations), so the
  // server's cache-hit path keys requests without compiling them.
  ChainHash hash(speeds.size());
  bool any_generic = false;
  for (const SpeedFunction* f : speeds) {
    const Classified cl = classify_entry(f);
    any_generic |= cl.family == Family::Generic;
    hash_entry(hash, f, cl);
  }
  if (generic != nullptr) *generic = any_generic;
  if (check != nullptr) *check = hash.check();
  return hash.fingerprint();
}

double CompiledSpeedList::raw_speed(const Entry& e, double x) const {
  switch (e.family) {
    case Family::Constant:
      return e.a;
    case Family::LinearDecay:
      return detail::linear_decay_speed(e.a, e.b, e.c, x);
    case Family::PowerDecay:
      return detail::power_decay_speed(e.a, e.b, e.c, x);
    case Family::ExpDecay:
      return detail::exp_decay_speed(e.a, e.b, x);
    case Family::Unimodal:
      return detail::unimodal_speed(e.a, e.b, e.c, aux_[e.offset],
                                    aux_[e.offset + 1], x);
    case Family::Stepped: {
      double s = e.a;
      double level = e.a;
      for (std::uint32_t i = 0; i < e.count; ++i) {
        const SteppedSpeed::Step& st = steps_[e.offset + i];
        s *= detail::stepped_step_factor(st.at, st.to, st.width, level, x);
        level = st.to;
      }
      return s;
    }
    case Family::Piecewise: {
      const std::uint32_t off = e.offset;
      const std::uint32_t last = e.count - 1;
      if (x <= px_[off]) return ps_[off];
      if (x >= px_[off + last])
        return detail::piecewise_tail_speed(ps_[off + last], e.b, e.a,
                                            x - px_[off + last]);
      // Branchless segment lookup over the SoA breakpoints: narrow to the
      // last index with px <= x using conditional selects (no data-dependent
      // branches), exactly the segment std::upper_bound picks on the AoS
      // points — including the tie case x == px[j], which lands on the
      // segment starting at j either way.
      std::uint32_t base = 0;
      std::uint32_t len = last;  // candidates [0, count-2]
      while (len > 1) {
        const std::uint32_t half = len >> 1;
        const bool go_right = px_[off + base + half] <= x;
        base = go_right ? base + half : base;
        len = go_right ? len - half : half;
      }
      return detail::piecewise_segment_speed(px_[off + base], ps_[off + base],
                                             px_[off + base + 1],
                                             ps_[off + base + 1], x);
    }
    case Family::Generic:
      break;
  }
  return e.base->speed(x);
}

double CompiledSpeedList::entry_speed(const Entry& e, double x) const {
  switch (e.wrap) {
    case Wrap::Scaled:
      return e.wrap_param * raw_speed(e, x);
    case Wrap::Granular:
      return raw_speed(e, x * e.wrap_param) / e.wrap_param;
    case Wrap::None:
      break;
  }
  return raw_speed(e, x);
}

double CompiledSpeedList::entry_intersect(const Entry& e, double slope) const {
  assert(slope > 0.0);
  if (e.family == Family::Generic) return e.base->intersect(slope);
  if (e.wrap != Wrap::None) {
    // The wrappers do not override intersect() on the virtual side, so the
    // compiled side runs the same generic bisection over the same speed
    // values (virtual dispatch removed, arithmetic unchanged).
    return detail::generic_intersect(
        [this, &e](double x) { return entry_speed(e, x); }, e.max_size, slope);
  }
  switch (e.family) {
    case Family::Constant:
      return detail::constant_intersect(e.a, slope);
    case Family::LinearDecay:
      return detail::linear_decay_intersect(e.a, e.b, e.c, slope);
    case Family::PowerDecay:
      return detail::power_decay_intersect(e.a, e.b, e.c, e.d, slope);
    case Family::ExpDecay:
      return detail::exp_decay_intersect(e.a, e.b, e.d, slope);
    case Family::Piecewise: {
      // Mirrors PiecewiseLinearSpeed::intersect() step for step, reading the
      // SoA slabs and the precomputed segment slopes.
      const std::uint32_t off = e.offset;
      const std::uint32_t last = e.count - 1;
      const double b = px_[off + last];
      if (raw_speed(e, b) >= slope * b)
        return detail::piecewise_tail_intersect(b, ps_[off + last], e.b, e.a,
                                                slope);
      if (slope * px_[off] >= ps_[off]) return ps_[off] / slope;
      std::uint32_t lo = 0;
      std::uint32_t hi = last;
      const detail::simd::SimdKernels* kern = active_kernels();
      if (kern != nullptr && e.count >= 16) {
        // Vectorized bracketing scan over the SoA slab: count the segment
        // starts still above the line. The predicate ps > slope·px is the
        // exact comparison of the binary search below, and the model's
        // decreasing speed(x)/x invariant makes it a true-prefix, so
        // (count_above - 1) is the same bracketing segment the binary
        // search lands on — bit-identically, since the arithmetic on the
        // selected segment is unchanged. The clamp only matters for
        // invalid (non-monotone) data, where either path is best-effort.
        const std::size_t above = kern->piecewise_count_above(
            px_.data() + off, ps_.data() + off, e.count, slope);
        lo = static_cast<std::uint32_t>(
            std::clamp<std::size_t>(above, 1, last) - 1);
        hi = lo + 1;
      } else {
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (ps_[off + mid] > slope * px_[off + mid])
            lo = mid;
          else
            hi = mid;
        }
      }
      return detail::piecewise_segment_intersect(px_[off + lo], ps_[off + lo],
                                                 pm_[off + lo], slope,
                                                 px_[off + lo], px_[off + hi]);
    }
    case Family::Unimodal:
    case Family::Stepped:
      // No closed form on the virtual side either: same generic bisection.
      return detail::generic_intersect(
          [this, &e](double x) { return raw_speed(e, x); }, e.max_size, slope);
    case Family::Generic:
      break;
  }
  return e.base->intersect(slope);
}

double CompiledSpeedList::speed(std::size_t i, double x) const {
  return entry_speed(entries_[i], x);
}

double CompiledSpeedList::intersect(std::size_t i, double slope) const {
  return entry_intersect(entries_[i], slope);
}

/// One batch task of intersect_all: a closed-form lane (lane 0..3, with its
/// BatchLane), an iterative lane (4=unimodal with its BatchLane, 5=stepped
/// with the SteppedLane) or the per-entry fallback list (lane 6). `idx`
/// holds the lane's real (unpadded) entries; chunks address ranges of it.
struct CompiledSpeedList::LaneSweep {
  int lane = 0;  ///< 0=constant 1=linear 2=power 3=exp 4=unimodal 5=stepped
                 ///< 6=other
  const std::vector<std::uint32_t>* idx = nullptr;
  const BatchLane* bl = nullptr;
  const SteppedLane* sl = nullptr;
  const detail::simd::SimdKernels* kern = nullptr;  ///< null => per entry
};

namespace {
/// Elements per parallel chunk — coarse enough that chunk handoff cost is
/// noise against ~512 intersect solves, small enough that p=4096 still
/// splits 8+ ways. Multiple of simd::kMaxLanes (chunk interiors then start
/// on vector boundaries at either width) and the size of the on-stack
/// result block below.
constexpr std::size_t kLaneChunk = 512;
static_assert(kLaneChunk % detail::simd::kMaxLanes == 0);

/// Per-backend slice of kPartitionBatchSimdEntries. The set of names is
/// fixed at compile time, so each resolves its registry slot once.
obs::Counter& backend_simd_entries_counter(const char* name) {
  static obs::Counter& portable = obs::metrics().counter(
      obs::names::kPartitionBatchSimdEntriesPortable);
  static obs::Counter& avx2 =
      obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesAvx2);
  static obs::Counter& avx512 =
      obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesAvx512);
  static obs::Counter& neon =
      obs::metrics().counter(obs::names::kPartitionBatchSimdEntriesNeon);
  if (std::strcmp(name, "avx512") == 0) return avx512;
  if (std::strcmp(name, "avx2") == 0) return avx2;
  if (std::strcmp(name, "neon") == 0) return neon;
  return portable;
}
}  // namespace

void CompiledSpeedList::lane_chunk_intersect(const LaneSweep& sweep,
                                             std::size_t begin,
                                             std::size_t end, double slope,
                                             std::span<double> out,
                                             std::int64_t& scalar_fixups) const {
  const std::vector<std::uint32_t>& idx = *sweep.idx;
  if (sweep.kern == nullptr || sweep.lane == 6) {
    // Scalar mode and the unbatched list: the per-entry solve, the one
    // exact solve every vector lane is checked against.
    for (std::size_t j = begin; j < end; ++j)
      out[idx[j]] = entry_intersect(entries_[idx[j]], slope);
    return;
  }
  // Vector path: the kernel fills a dense on-stack block (begin is always a
  // multiple of the backend width — chunks step by kLaneChunk — and reading
  // up to the width-padded length stays inside the column because storage
  // is padded to kMaxLanes and only the final chunk has a ragged end).
  const std::size_t m = end - begin;
  assert(begin % sweep.kern->width == 0 && m <= kLaneChunk);
  alignas(64) double block[kLaneChunk];
  const std::size_t mpad = detail::simd::padded_size(m, sweep.kern->width);
  const BatchLane* bl = sweep.bl;  // null for the stepped lane
  switch (sweep.lane) {
    case 0:
      sweep.kern->constant_batch(bl->a.data() + begin, mpad, slope, block);
      break;
    case 1:
      sweep.kern->linear_batch(bl->a.data() + begin, bl->b.data() + begin,
                               bl->c.data() + begin, mpad, slope, block);
      break;
    case 2:
      sweep.kern->power_batch(bl->a.data() + begin, bl->b.data() + begin,
                              bl->c.data() + begin, bl->d.data() + begin, mpad,
                              slope, block);
      break;
    case 3:
      sweep.kern->exp_batch(bl->a.data() + begin, bl->b.data() + begin, mpad,
                            slope, block);
      break;
    case 4:
      sweep.kern->unimodal_batch(bl->a.data() + begin, bl->b.data() + begin,
                                 bl->c.data() + begin, bl->d.data() + begin,
                                 bl->e.data() + begin, bl->f.data() + begin,
                                 mpad, slope, block);
      break;
    default: {
      // The slot-major slabs share the entry indexing of a/f, so offsetting
      // every slab pointer by `begin` (keeping the full-lane stride) lands
      // slot s of chunk element j at [s·stride + begin + j] as laid out.
      const SteppedLane& sl = *sweep.sl;
      sweep.kern->stepped_batch(sl.a.data() + begin, sl.f.data() + begin,
                                sl.at.data() + begin, sl.ratio.data() + begin,
                                sl.width.data() + begin, mpad, sl.stride,
                                sl.nslots, slope, block);
      break;
    }
  }
  if (sweep.lane <= 1) {
    // Constant/linear kernels never punt (pure IEEE arithmetic, no NaN
    // sentinels), so scatter without the fixup scan — the scan otherwise
    // costs as much as the division-bound kernels themselves.
    for (std::size_t j = 0; j < m; ++j) out[idx[begin + j]] = block[j];
    return;
  }
  for (std::size_t j = 0; j < m; ++j) {
    double x = block[j];
    if (std::isnan(x)) {
      // NaN is the kernels' punt sentinel (a decision boundary, a crossing
      // at/beyond max_size, a stepped solve past its iteration cap): rerun
      // the per-entry solve, so the bracket expansion and its saturation
      // tally happen exactly as in scalar mode.
      x = entry_intersect(entries_[idx[begin + j]], slope);
      ++scalar_fixups;
    }
    out[idx[begin + j]] = x;
  }
}

void CompiledSpeedList::intersect_all(double slope,
                                      std::span<double> out) const {
  assert(out.size() == entries_.size());
  const detail::simd::SimdKernels* kern = active_kernels();

  LaneSweep sweeps[7];
  std::size_t nsweeps = 0;
  const auto add_lane = [&](int lane, const std::vector<std::uint32_t>& idx,
                            const BatchLane* bl, const SteppedLane* sl) {
    if (!idx.empty()) sweeps[nsweeps++] = LaneSweep{lane, &idx, bl, sl, kern};
  };
  add_lane(0, lane_constant_.idx, &lane_constant_, nullptr);
  add_lane(1, lane_linear_.idx, &lane_linear_, nullptr);
  add_lane(2, lane_power_.idx, &lane_power_, nullptr);
  add_lane(3, lane_exp_.idx, &lane_exp_, nullptr);
  add_lane(4, lane_unimodal_.idx, &lane_unimodal_, nullptr);
  add_lane(5, lane_stepped_.idx, nullptr, &lane_stepped_);
  add_lane(6, batch_other_, nullptr, nullptr);

  std::int64_t fixups = 0;
  bool split = false;
  if (entries_.size() >= parallel_intersect_threshold() &&
      detail::lane_pool_threads() > 0) {
    struct Task {
      const LaneSweep* sweep;
      std::size_t begin, end;
    };
    std::vector<Task> tasks;
    tasks.reserve(entries_.size() / kLaneChunk + nsweeps);
    for (std::size_t i = 0; i < nsweeps; ++i) {
      const std::size_t count = sweeps[i].idx->size();
      for (std::size_t b = 0; b < count; b += kLaneChunk)
        tasks.push_back({&sweeps[i], b, std::min(b + kLaneChunk, count)});
    }
    split = tasks.size() > 1;
    std::atomic<std::int64_t> fix_total{0};
    std::atomic<std::int64_t> sat_total{0};
    detail::parallel_for_chunks(tasks.size(), [&](std::size_t t) {
      // Bracket saturations inside a chunk land on the executing pool
      // thread's tally; migrate each chunk's delta to the solving thread so
      // SearchState's snapshot sees them no matter where the chunk ran.
      std::int64_t local_fix = 0;
      std::int64_t& tally = detail::bracket_saturation_tally();
      const std::int64_t tally_before = tally;
      const Task& task = tasks[t];
      lane_chunk_intersect(*task.sweep, task.begin, task.end, slope, out,
                           local_fix);
      sat_total.fetch_add(tally - tally_before, std::memory_order_relaxed);
      tally = tally_before;
      if (local_fix != 0)
        fix_total.fetch_add(local_fix, std::memory_order_relaxed);
    });
    detail::bracket_saturation_tally() +=
        sat_total.load(std::memory_order_relaxed);
    fixups = fix_total.load(std::memory_order_relaxed);
  } else {
    for (std::size_t i = 0; i < nsweeps; ++i) {
      const std::size_t count = sweeps[i].idx->size();
      for (std::size_t b = 0; b < count; b += kLaneChunk)
        lane_chunk_intersect(sweeps[i], b, std::min(b + kLaneChunk, count),
                             slope, out, fixups);
    }
  }

  // Lane occupancy / vector-path hit rate. Counter refs resolve once; the
  // per-backend split and the backend info gauge let dashboards tell which
  // variant the dispatch picked without scraping logs.
  static obs::Counter& c_simd =
      obs::metrics().counter(obs::names::kPartitionBatchSimdEntries);
  static obs::Counter& c_scalar =
      obs::metrics().counter(obs::names::kPartitionBatchScalarEntries);
  static obs::Counter& c_splits =
      obs::metrics().counter(obs::names::kPartitionBatchParallelSweeps);
  static obs::Gauge& g_backend =
      obs::metrics().gauge(obs::names::kPartitionBatchBackend);
  const auto batched =
      static_cast<std::int64_t>(entries_.size() - batch_other_.size());
  const auto other = static_cast<std::int64_t>(batch_other_.size());
  g_backend.set(static_cast<double>(
      static_cast<std::uint8_t>(active_simd_backend())));
  if (kern != nullptr) {
    c_simd.add(batched - fixups);
    backend_simd_entries_counter(kern->name).add(batched - fixups);
    if (other + fixups != 0) c_scalar.add(other + fixups);
  } else if (batched + other != 0) {
    c_scalar.add(batched + other);
  }
  if (split) c_splits.add(1);
}

void CompiledSpeedList::speed_all(std::span<const double> xs,
                                  std::span<double> out) const {
  assert(xs.size() == entries_.size() && out.size() == entries_.size());
  const detail::simd::SimdKernels* kern = active_kernels();
  const auto scalar_lane = [&](const std::vector<std::uint32_t>& idx) {
    for (const std::uint32_t i : idx) out[i] = entry_speed(entries_[i], xs[i]);
  };
  // Constant/linear entries are cheap per-entry scalar evaluations (a
  // select, a division, a couple of multiplies). Unimodal and stepped
  // entries are not cheap — a libm pow, or up to kMaxVecSteps libm tanh
  // calls — but they are rare in the fleets measured so far, so they stay
  // scalar too; the libm pow/exp of the power/exp lanes is where the
  // sweep's time goes, so those two lanes take the vector speed kernels
  // when a backend is active.
  scalar_lane(lane_constant_.idx);
  scalar_lane(lane_linear_.idx);
  scalar_lane(lane_unimodal_.idx);
  scalar_lane(lane_stepped_.idx);
  scalar_lane(batch_other_);
  if (kern == nullptr) {
    scalar_lane(lane_power_.idx);
    scalar_lane(lane_exp_.idx);
    return;
  }
  // Gather xs through idx into a padded column (pad slots duplicate the
  // last real size: in-domain, never scattered back), run the kernel over
  // the whole lane, fix up NaN punts with the exact scalar evaluation.
  static thread_local detail::simd::LaneVector xbuf;
  static thread_local detail::simd::LaneVector rbuf;
  const auto vector_lane = [&](const BatchLane& bl, bool is_power) {
    const std::size_t count = bl.idx.size();
    if (count == 0) return;
    const std::size_t storage = detail::simd::padded_size(count);
    const std::size_t mpad = detail::simd::padded_size(count, kern->width);
    xbuf.resize(storage);
    rbuf.resize(storage);
    for (std::size_t j = 0; j < count; ++j) xbuf[j] = xs[bl.idx[j]];
    for (std::size_t j = count; j < storage; ++j) xbuf[j] = xbuf[count - 1];
    if (is_power) {
      kern->power_speed_batch(bl.a.data(), bl.b.data(), bl.c.data(),
                              xbuf.data(), mpad, rbuf.data());
    } else {
      kern->exp_speed_batch(bl.a.data(), bl.b.data(), xbuf.data(), mpad,
                            rbuf.data());
    }
    for (std::size_t j = 0; j < count; ++j) {
      double s = rbuf[j];
      if (std::isnan(s)) s = entry_speed(entries_[bl.idx[j]], xs[bl.idx[j]]);
      out[bl.idx[j]] = s;
    }
  };
  vector_lane(lane_power_, /*is_power=*/true);
  vector_lane(lane_exp_, /*is_power=*/false);
}

std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs,
                              EvalCounters* counters) {
  std::vector<double> out(speeds.size());
  speeds.speed_all(xs, out);
  if (counters)
    counters->speed_evals += static_cast<std::int64_t>(speeds.size());
  return out;
}

namespace {

/// Solves one line into `xs` and counts it. Every compiled line solve
/// goes through here.
void solve_line(const CompiledSpeedList& speeds, double slope,
                std::span<double> xs, EvalCounters* counters) {
  speeds.intersect_all(slope, xs);
  if (counters)
    counters->intersect_solves += static_cast<std::int64_t>(speeds.size());
}

/// The entry-order sum of a solved line: lane-local partial sums would
/// reorder the floating-point additions and break bit-identity with the
/// per-entry path.
double line_total(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum;
}

}  // namespace

std::vector<double> sizes_at(const CompiledSpeedList& speeds, double slope,
                             EvalCounters* counters) {
  std::vector<double> xs(speeds.size());
  solve_line(speeds, slope, xs, counters);
  return xs;
}

double total_size_at(const CompiledSpeedList& speeds, double slope,
                     EvalCounters* counters) {
  static thread_local std::vector<double> scratch;
  scratch.resize(speeds.size());
  solve_line(speeds, slope, scratch, counters);
  return line_total(scratch);
}

SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters, std::vector<double>* small,
                            std::vector<double>* large) {
  // Counting profile: one speed probe per processor, one solve batch per
  // expansion test. The SpeedList overload in partition.cpp forwards here.
  if (speeds.size() == 0)
    throw std::invalid_argument("detect_bracket: no speeds");
  if (n < 1) throw std::invalid_argument("detect_bracket: n must be >= 1");
  const double p = static_cast<double>(speeds.size());
  const double probe = static_cast<double>(n) / p;
  double s_min = std::numeric_limits<double>::infinity();
  double s_max = 0.0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const double s = speeds.speed(i, std::min(probe, speeds.max_size(i)));
    s_min = std::min(s_min, s);
    s_max = std::max(s_max, s);
  }
  if (counters)
    counters->speed_evals += static_cast<std::int64_t>(speeds.size());
  SlopeBracket br;
  br.hi_slope = s_max / probe;  // line 1 of Figure 18
  br.lo_slope = s_min / probe;  // line 2 of Figure 18
  if (br.lo_slope <= 0.0) br.lo_slope = br.hi_slope * 1e-12;
  // Figure 18's construction guarantees the bracket under the shape
  // requirement; the expansion loops below make the function total for any
  // inputs. Intersections extend beyond the modelled ranges (see
  // SpeedFunction::intersect), so the total size is unbounded as the slope
  // approaches zero and the shallow expansion always terminates. Each test
  // keeps its solved sizes, so the final lines come back without a re-solve.
  const double nd = static_cast<double>(n);
  std::vector<double> hi_local, lo_local;
  std::vector<double>& hi_sizes = small != nullptr ? *small : hi_local;
  std::vector<double>& lo_sizes = large != nullptr ? *large : lo_local;
  hi_sizes.resize(speeds.size());
  lo_sizes.resize(speeds.size());
  const auto total_at = [&](double slope, std::vector<double>& xs) {
    solve_line(speeds, slope, xs, counters);
    return line_total(xs);
  };
  double hi_total = total_at(br.hi_slope, hi_sizes);
  for (int i = 0; i < 256 && hi_total > nd; ++i) {
    br.hi_slope *= 2.0;
    hi_total = total_at(br.hi_slope, hi_sizes);
  }
  double lo_total = total_at(br.lo_slope, lo_sizes);
  for (int i = 0; i < 256 && lo_total < nd; ++i) {
    br.lo_slope *= 0.5;
    lo_total = total_at(br.lo_slope, lo_sizes);
  }
  if (br.lo_slope > br.hi_slope) {
    std::swap(br.lo_slope, br.hi_slope);
    hi_sizes.swap(lo_sizes);
  }
  return br;
}

}  // namespace fpm::core
