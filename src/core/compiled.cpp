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

// Fingerprint fold: one 64-bit word per field, each absorbed as
// h' = F(h ^ v) with F the SplitMix64 finalizer. F is a bijection, so two
// field sequences of equal length that differ in exactly one word always
// hash differently. Parameters are hashed through their bit patterns (not
// values) so that -0.0 vs 0.0 and NaN payloads cannot collide two different
// models onto one cache key.
constexpr std::uint64_t kHashSeed = 0x6a09e667f3bcc908ULL;

inline std::uint64_t hash_mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t hash_mix(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

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
/// for the bit-exact scalar batch path.
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

/// The fingerprint state before the first entry: the list length.
std::uint64_t hash_start(std::size_t size) {
  return hash_mix(kHashSeed, static_cast<std::uint64_t>(size));
}

/// Folds one classified entry into the running fingerprint `h`. Generic
/// entries hash their object address (identity semantics); every other
/// entry hashes its family and wrap, its parameter bit patterns, then its
/// pool data, in a fixed order.
std::uint64_t hash_entry(std::uint64_t h, const SpeedFunction* f,
                         const Classified& cl) {
  using Family = CompiledSpeedList::Family;
  h = hash_mix(h, (static_cast<std::uint64_t>(cl.family) << 8) |
                      static_cast<std::uint64_t>(cl.wrap));
  if (cl.family == Family::Generic)
    return hash_mix(
        h, static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(f)));
  h = hash_mix(h, cl.wrap_param);
  h = hash_mix(h, cl.max_size);
  h = hash_mix(h, cl.a);
  h = hash_mix(h, cl.b);
  h = hash_mix(h, cl.c);
  h = hash_mix(h, cl.d);
  h = hash_mix(h, static_cast<std::uint64_t>(cl.count));
  switch (cl.family) {
    case Family::Unimodal:
      h = hash_mix(h, cl.unimodal->decay_x0());
      h = hash_mix(h, cl.unimodal->decay_exponent());
      break;
    case Family::Stepped:
      for (const SteppedSpeed::Step& st : cl.stepped->steps()) {
        h = hash_mix(h, st.at);
        h = hash_mix(h, st.to);
        h = hash_mix(h, st.width);
      }
      break;
    case Family::Piecewise:
      for (const SpeedPoint& p : cl.piecewise->points()) {
        h = hash_mix(h, p.size);
        h = hash_mix(h, p.speed);
      }
      break;
    default:
      break;
  }
  return h;
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
  CompiledSpeedList list;
  list.entries_.reserve(speeds.size());
  std::uint64_t h = hash_start(speeds.size());
  for (const SpeedFunction* f : speeds) {
    const Classified cl = classify_entry(f);
    h = hash_entry(h, f, cl);
    Entry e;
    e.base = f;
    e.family = cl.family;
    e.wrap = cl.wrap;
    e.wrap_param = cl.wrap_param;
    e.a = cl.a;
    e.b = cl.b;
    e.c = cl.c;
    e.d = cl.d;
    e.count = cl.count;
    switch (cl.family) {
      case Family::Unimodal:
        e.offset = static_cast<std::uint32_t>(list.aux_.size());
        list.aux_.push_back(cl.unimodal->decay_x0());
        list.aux_.push_back(cl.unimodal->decay_exponent());
        break;
      case Family::Stepped:
        e.offset = static_cast<std::uint32_t>(list.steps_.size());
        list.steps_.insert(list.steps_.end(), cl.stepped->steps().begin(),
                           cl.stepped->steps().end());
        break;
      case Family::Piecewise: {
        const auto pts = cl.piecewise->points();
        e.offset = static_cast<std::uint32_t>(list.px_.size());
        for (const SpeedPoint& p : pts) {
          list.px_.push_back(p.size);
          list.ps_.push_back(p.speed);
        }
        // Segment slopes computed with the exact expression of
        // PiecewiseLinearSpeed::intersect, so the compiled segment solve
        // feeds piecewise_segment_intersect the same m it would compute per
        // call. One padding slot per function keeps pm_ aligned with
        // px_/ps_.
        for (std::size_t i = 1; i < pts.size(); ++i)
          list.pm_.push_back((pts[i].speed - pts[i - 1].speed) /
                             (pts[i].size - pts[i - 1].size));
        list.pm_.push_back(0.0);
        break;
      }
      case Family::Generic:
        ++list.generic_entries_;
        break;
      default:
        break;
    }
    e.max_size = cl.max_size;
    list.entries_.push_back(e);
  }
  list.fingerprint_ = h;
  // Batch plan for intersect_all(): group the unwrapped closed-form
  // families into SoA parameter lanes, vetted unwrapped Unimodal/Stepped
  // entries into the iterative lanes; everything else (wrapped entries,
  // irregular pool-backed entries, Piecewise, Generic) keeps the per-entry
  // dispatch. Vetting admits only parameters squarely inside the vector
  // kernels' vexp/vlog domains — anything exotic (non-normal scales,
  // negative exponents, too many steps) is a compile-time punt to
  // batch_other_, so the only runtime punt those lanes need is the
  // beyond-max_size bracket expansion.
  const auto pos_normal = [](double v) { return std::isnormal(v) && v > 0.0; };
  for (std::size_t i = 0; i < list.entries_.size(); ++i) {
    const Entry& e = list.entries_[i];
    const auto dst = static_cast<std::uint32_t>(i);
    if (e.wrap != Wrap::None) {
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
      case Family::Unimodal: {
        const double x0 = list.aux_[e.offset];
        const double k = list.aux_[e.offset + 1];
        const bool safe = pos_normal(e.c) && pos_normal(x0) &&
                          pos_normal(e.max_size) && std::isfinite(k) &&
                          k >= 0.0 && std::isfinite(e.a) && e.a >= 0.0 &&
                          std::isfinite(e.b) && e.b > 0.0;
        if (!safe) {
          list.batch_other_.push_back(dst);
          break;
        }
        list.lane_unimodal_.idx.push_back(dst);
        list.lane_unimodal_.a.push_back(e.a);
        list.lane_unimodal_.b.push_back(e.b);
        list.lane_unimodal_.c.push_back(e.c);
        list.lane_unimodal_.d.push_back(x0);
        list.lane_unimodal_.e.push_back(k);
        list.lane_unimodal_.f.push_back(e.max_size);
        break;
      }
      case Family::Stepped: {
        bool safe = pos_normal(e.a) && pos_normal(e.max_size) &&
                    e.count <= kMaxVecSteps;
        for (std::uint32_t s = 0; safe && s < e.count; ++s) {
          const SteppedSpeed::Step& st = list.steps_[e.offset + s];
          safe = std::isfinite(st.at) && pos_normal(st.to) &&
                 pos_normal(st.width);
        }
        if (!safe) {
          list.batch_other_.push_back(dst);
          break;
        }
        list.lane_stepped_.idx.push_back(dst);
        list.lane_stepped_.a.push_back(e.a);
        list.lane_stepped_.f.push_back(e.max_size);
        break;
      }
      default:
        list.batch_other_.push_back(dst);
        break;
    }
  }
  // Pad every lane column to kMaxLanes (the widest compiled vector width)
  // by duplicating the last real element: whichever backend the runtime
  // dispatch picks then streams whole registers with the pad slots
  // computing harmless in-domain values that are never scattered (idx
  // keeps the real count, and the scalar batch kernels loop over it).
  const auto pad_lane = [](BatchLane& lane) {
    if (lane.empty()) return;
    const std::size_t padded = detail::simd::padded_size(lane.idx.size());
    const auto grow = [padded](BatchLane::Column& col) {
      if (!col.empty()) col.resize(padded, col.back());
    };
    grow(lane.a);
    grow(lane.b);
    grow(lane.c);
    grow(lane.d);
    grow(lane.e);
    grow(lane.f);
  };
  pad_lane(list.lane_constant_);
  pad_lane(list.lane_linear_);
  pad_lane(list.lane_power_);
  pad_lane(list.lane_exp_);
  pad_lane(list.lane_unimodal_);
  // Second pass for the stepped lane: the slot-major slabs need the final
  // entry count (stride) before any step can be placed.
  if (!list.lane_stepped_.empty()) {
    SteppedLane& sl = list.lane_stepped_;
    const std::size_t count = sl.idx.size();
    sl.stride = detail::simd::padded_size(count);
    sl.a.resize(sl.stride, sl.a.back());
    sl.f.resize(sl.stride, sl.f.back());
    for (std::size_t j = 0; j < count; ++j)
      sl.nslots = std::max<std::size_t>(
          sl.nslots, list.entries_[sl.idx[j]].count);
    const double inf = std::numeric_limits<double>::infinity();
    sl.at.assign(sl.nslots * sl.stride, inf);       // identity step:
    sl.ratio.assign(sl.nslots * sl.stride, 1.0);    //   factor == 1 exactly
    sl.width.assign(sl.nslots * sl.stride, 1.0);
    for (std::size_t j = 0; j < count; ++j) {
      const Entry& e = list.entries_[sl.idx[j]];
      double level = e.a;
      for (std::uint32_t s = 0; s < e.count; ++s) {
        const SteppedSpeed::Step& st = list.steps_[e.offset + s];
        const std::size_t off = s * sl.stride + j;
        sl.at[off] = st.at;
        sl.ratio[off] = st.to / level;
        sl.width[off] = st.width;
        level = st.to;
      }
    }
  }
  return list;
}

std::uint64_t CompiledSpeedList::fingerprint_of(const SpeedList& speeds,
                                                bool* generic) {
  // The hash compile() folds during its own walk, without the pools:
  // classification only reads the objects (no allocations), so the
  // server's cache-hit path keys requests without compiling them.
  std::uint64_t h = hash_start(speeds.size());
  bool any_generic = false;
  for (const SpeedFunction* f : speeds) {
    const Classified cl = classify_entry(f);
    any_generic |= cl.family == Family::Generic;
    h = hash_entry(h, f, cl);
  }
  if (generic != nullptr) *generic = any_generic;
  return h;
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
/// with the SteppedLane) or the per-entry fallback list (lane 6). `count`
/// is the real (unpadded) element count; chunks address element ranges.
struct CompiledSpeedList::LaneSweep {
  int lane = 0;  ///< 0=constant 1=linear 2=power 3=exp 4=unimodal 5=stepped
                 ///< 6=other
  const BatchLane* bl = nullptr;
  const SteppedLane* sl = nullptr;
  const std::vector<std::uint32_t>* other = nullptr;
  const detail::simd::SimdKernels* kern = nullptr;  ///< null => scalar batch
  std::size_t count = 0;
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
  if (sweep.lane == 6) {
    for (std::size_t j = begin; j < end; ++j) {
      const std::uint32_t i = (*sweep.other)[j];
      out[i] = entry_intersect(entries_[i], slope);
    }
    return;
  }
  const std::size_t m = end - begin;
  if (sweep.lane >= 4) {
    // Iterative lanes. These families have no scalar *batch* kernel, so
    // scalar mode is the per-entry generic bisection — bit-identical to
    // the pre-lane behaviour, where these entries sat in batch_other_.
    const std::vector<std::uint32_t>& idx =
        sweep.lane == 4 ? sweep.bl->idx : sweep.sl->idx;
    if (sweep.kern == nullptr) {
      for (std::size_t j = begin; j < end; ++j)
        out[idx[j]] = entry_intersect(entries_[idx[j]], slope);
      return;
    }
    assert(begin % sweep.kern->width == 0 && m <= kLaneChunk);
    alignas(64) double block[kLaneChunk];
    const std::size_t mpad = detail::simd::padded_size(m, sweep.kern->width);
    if (sweep.lane == 4) {
      const BatchLane& bl = *sweep.bl;
      sweep.kern->unimodal_batch(bl.a.data() + begin, bl.b.data() + begin,
                                 bl.c.data() + begin, bl.d.data() + begin,
                                 bl.e.data() + begin, bl.f.data() + begin,
                                 mpad, slope, block);
    } else {
      // The slot-major slabs share the entry indexing of a/f, so offsetting
      // every slab pointer by `begin` (keeping the full-lane stride) lands
      // slot s of chunk element j at [s·stride + begin + j] as laid out.
      const SteppedLane& sl = *sweep.sl;
      sweep.kern->stepped_batch(sl.a.data() + begin, sl.f.data() + begin,
                                sl.at.data() + begin, sl.ratio.data() + begin,
                                sl.width.data() + begin, mpad, sl.stride,
                                sl.nslots, slope, block);
    }
    for (std::size_t j = 0; j < m; ++j) {
      double x = block[j];
      if (std::isnan(x)) {
        // Crossing at/beyond max_size (or a stepped lane past its
        // iteration cap): rerun the scalar bisection so the bracket
        // expansion and its saturation tally happen exactly as on the
        // per-entry path.
        x = entry_intersect(entries_[idx[begin + j]], slope);
        ++scalar_fixups;
      }
      out[idx[begin + j]] = x;
    }
    return;
  }
  const BatchLane& bl = *sweep.bl;
  if (sweep.kern == nullptr) {
    // Bit-exact scalar batch kernels over the chunk's sub-columns (the
    // kernels loop over idx.size(), so padding never enters).
    const std::span<const std::uint32_t> idx(bl.idx.data() + begin, m);
    switch (sweep.lane) {
      case 0:
        detail::constant_intersect_batch(idx, {bl.a.data() + begin, m}, slope,
                                         out);
        break;
      case 1:
        detail::linear_decay_intersect_batch(idx, {bl.a.data() + begin, m},
                                             {bl.b.data() + begin, m},
                                             {bl.c.data() + begin, m}, slope,
                                             out);
        break;
      case 2:
        detail::power_decay_intersect_batch(
            idx, {bl.a.data() + begin, m}, {bl.b.data() + begin, m},
            {bl.c.data() + begin, m}, {bl.d.data() + begin, m}, slope, out);
        break;
      default:
        detail::exp_decay_intersect_batch(idx, {bl.a.data() + begin, m},
                                          {bl.b.data() + begin, m},
                                          {bl.d.data() + begin, m}, slope,
                                          out);
        break;
    }
    return;
  }
  // Vector path: the kernel fills a dense on-stack block (begin is always a
  // multiple of the backend width — chunks step by kLaneChunk — and reading
  // up to the width-padded length stays inside the column because storage
  // is padded to kMaxLanes and only the final chunk has a ragged end). NaN
  // slots are the kernels' punt sentinel: recompute those with the exact
  // scalar kernel, then scatter through idx.
  assert(begin % sweep.kern->width == 0 && m <= kLaneChunk);
  alignas(64) double block[kLaneChunk];
  const std::size_t mpad = detail::simd::padded_size(m, sweep.kern->width);
  switch (sweep.lane) {
    case 0:
      sweep.kern->constant_batch(bl.a.data() + begin, mpad, slope, block);
      break;
    case 1:
      sweep.kern->linear_batch(bl.a.data() + begin, bl.b.data() + begin,
                               bl.c.data() + begin, mpad, slope, block);
      break;
    case 2:
      sweep.kern->power_batch(bl.a.data() + begin, bl.b.data() + begin,
                              bl.c.data() + begin, bl.d.data() + begin, mpad,
                              slope, block);
      break;
    default:
      sweep.kern->exp_batch(bl.a.data() + begin, bl.b.data() + begin, mpad,
                            slope, block);
      break;
  }
  if (sweep.lane <= 1) {
    // Constant/linear kernels never punt (pure IEEE arithmetic, no NaN
    // sentinels), so scatter without the fixup scan — the scan otherwise
    // costs as much as the division-bound kernels themselves.
    for (std::size_t j = 0; j < m; ++j) out[bl.idx[begin + j]] = block[j];
    return;
  }
  for (std::size_t j = 0; j < m; ++j) {
    double x = block[j];
    if (std::isnan(x)) {
      const std::size_t s = begin + j;
      if (sweep.lane == 2) {
        x = detail::power_decay_intersect(bl.a[s], bl.b[s], bl.c[s], bl.d[s],
                                          slope);
      } else {
        x = detail::exp_decay_intersect(bl.a[s], bl.b[s], bl.d[s], slope);
      }
      ++scalar_fixups;
    }
    out[bl.idx[begin + j]] = x;
  }
}

void CompiledSpeedList::intersect_all(double slope,
                                      std::span<double> out) const {
  assert(out.size() == entries_.size());
  const detail::simd::SimdKernels* kern = active_kernels();

  LaneSweep sweeps[7];
  std::size_t nsweeps = 0;
  const auto add_lane = [&](int lane, const BatchLane& bl) {
    if (!bl.empty())
      sweeps[nsweeps++] =
          LaneSweep{lane, &bl, nullptr, nullptr, kern, bl.idx.size()};
  };
  add_lane(0, lane_constant_);
  add_lane(1, lane_linear_);
  add_lane(2, lane_power_);
  add_lane(3, lane_exp_);
  add_lane(4, lane_unimodal_);
  if (!lane_stepped_.empty())
    sweeps[nsweeps++] = LaneSweep{5,    nullptr, &lane_stepped_,
                                  nullptr, kern, lane_stepped_.idx.size()};
  if (!batch_other_.empty())
    sweeps[nsweeps++] = LaneSweep{6,    nullptr, nullptr,
                                  &batch_other_, kern, batch_other_.size()};

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
    for (std::size_t i = 0; i < nsweeps; ++i)
      for (std::size_t b = 0; b < sweeps[i].count; b += kLaneChunk)
        tasks.push_back(
            {&sweeps[i], b, std::min(b + kLaneChunk, sweeps[i].count)});
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
      for (std::size_t b = 0; b < sweeps[i].count; b += kLaneChunk)
        lane_chunk_intersect(sweeps[i], b,
                             std::min(b + kLaneChunk, sweeps[i].count), slope,
                             out, fixups);
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
