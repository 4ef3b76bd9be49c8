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
#include <utility>

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

/// The list and model PrecompiledGuard installed on this thread.
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

namespace {

/// Alignment of the block, and so of every lane column in it.
constexpr std::size_t kBlockAlign = 64;

}  // namespace

void CompiledSpeedList::allocate_block() {
  storage_.reset(new std::byte[layout_.bytes + kBlockAlign - 1]);
  const auto address = reinterpret_cast<std::uintptr_t>(storage_.get());
  block_ = storage_.get() + (-address & (kBlockAlign - 1));
}

CompiledSpeedList::CompiledSpeedList(const CompiledSpeedList& other)
    : layout_(other.layout_) {
  if (other.block_ == nullptr) return;
  allocate_block();
  std::memcpy(block_, other.block_, layout_.bytes);
}

CompiledSpeedList::CompiledSpeedList(CompiledSpeedList&& other) noexcept
    : layout_(std::exchange(other.layout_, {})),
      storage_(std::move(other.storage_)),
      block_(std::exchange(other.block_, nullptr)) {}

CompiledSpeedList& CompiledSpeedList::operator=(
    const CompiledSpeedList& other) {
  if (this != &other) *this = CompiledSpeedList(other);
  return *this;
}

CompiledSpeedList& CompiledSpeedList::operator=(
    CompiledSpeedList&& other) noexcept {
  layout_ = std::exchange(other.layout_, {});
  storage_ = std::move(other.storage_);
  block_ = std::exchange(other.block_, nullptr);
  return *this;
}

CompiledSpeedList CompiledSpeedList::compile(const SpeedList& speeds) {
  // Batch plan for intersect_all(): the unwrapped closed-form families go
  // to SoA parameter lanes, vetted unwrapped Unimodal/Stepped entries to
  // the iterative lanes; everything else (wrapped entries, irregular
  // pool-backed entries, Piecewise, Generic) keeps the per-entry dispatch.
  // Vetting admits only parameters squarely inside the vector kernels'
  // vexp/vlog domains — anything exotic (non-normal scales, negative
  // exponents, too many steps) is a compile-time punt to the unbatched
  // list, so the only runtime punt those lanes need is the beyond-max_size
  // bracket expansion.
  const auto pos_normal = [](double v) { return std::isnormal(v) && v > 0.0; };
  const auto lane_for = [&pos_normal](const Classified& cl) {
    if (cl.wrap != Wrap::None) return kOther;
    switch (cl.family) {
      case Family::Unimodal: {
        const double k = cl.unimodal->decay_exponent();
        const bool safe =
            pos_normal(cl.c) && pos_normal(cl.unimodal->decay_x0()) &&
            pos_normal(cl.max_size) && std::isfinite(k) && k >= 0.0 &&
            std::isfinite(cl.a) && cl.a >= 0.0 && std::isfinite(cl.b) &&
            cl.b > 0.0;
        return safe ? kUnimodal : kOther;
      }
      case Family::Stepped: {
        bool safe = pos_normal(cl.a) && pos_normal(cl.max_size) &&
                    cl.count <= kMaxVecSteps;
        for (const SteppedSpeed::Step& st : cl.stepped->steps())
          safe = safe && std::isfinite(st.at) && pos_normal(st.to) &&
                 pos_normal(st.width);
        return safe ? kStepped : kOther;
      }
      default:
        return lane_of(cl.family);
    }
  };

  // Pass 1, the classification walk: fold the fingerprint and count every
  // lane and pool, which fixes where each array sits in the block.
  CompiledSpeedList list;
  Layout& lay = list.layout_;
  if (speeds.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("CompiledSpeedList: too many entries");
  lay.size = speeds.size();
  ChainHash hash(speeds.size());
  std::size_t points = 0, steps = 0;
  for (const SpeedFunction* f : speeds) {
    const Classified cl = classify_entry(f);
    hash_entry(hash, f, cl);
    const LaneId lane = lane_for(cl);
    ++lay.lanes[lane].count;
    if (lane == kStepped)
      lay.nslots = std::max(lay.nslots, cl.count);
    else if (cl.family == Family::Piecewise)
      points += cl.count;
    else if (cl.family == Family::Stepped)
      steps += cl.count;
    else if (cl.family == Family::Generic)
      ++lay.generic_entries;
  }
  lay.fingerprint = hash.fingerprint();
  if (lay.size == 0) return list;

  // The block, in order: the lane columns and step slabs (each a multiple
  // of kMaxLanes doubles, so every one starts 64-byte aligned), the entry
  // table, the parameter records, the piecewise and step pools, and the
  // lanes' entry indices.
  std::size_t bytes = 0;
  const auto place = [&bytes](std::size_t count, std::size_t elem) {
    const std::size_t offset = bytes;
    bytes += count * elem;
    if (bytes > std::numeric_limits<std::uint32_t>::max())
      throw std::length_error("CompiledSpeedList: model too large");
    return static_cast<std::uint32_t>(offset);
  };
  static_assert(detail::simd::kMaxLanes * sizeof(double) % kBlockAlign == 0);
  static_assert(sizeof(Entry) % alignof(Params) == 0 &&
                sizeof(Params) % alignof(double) == 0);
  for (int l = 0; l < kOther; ++l) {
    Lane& lane = lay.lanes[l];
    if (lane.count == 0) continue;
    const std::size_t padded = detail::simd::padded_size(lane.count);
    for (int c = 0; c < 6; ++c)
      if ((kLaneColumns[l] >> c) & 1)
        lane.col[c] = place(padded, sizeof(double));
    // Lane entries are unwrapped, so LinearDecay's b and PowerDecay's and
    // ExpDecay's d are their max_size: column f names that column there.
    if (((kLaneColumns[l] >> 5) & 1) == 0)
      lane.col[5] = lane.col[l == kLinear ? 1 : 3];
  }
  if (lay.lanes[kStepped].count != 0) {
    lay.stride = static_cast<std::uint32_t>(
        detail::simd::padded_size(lay.lanes[kStepped].count));
    for (std::uint32_t& slab : lay.slabs)
      slab = place(std::size_t{lay.nslots} * lay.stride, sizeof(double));
  }
  lay.entries = place(lay.size, sizeof(Entry));
  lay.records = place(lay.lanes[kOther].count, sizeof(Params));
  lay.px = place(points, sizeof(double));
  lay.ps = place(points, sizeof(double));
  for (std::uint32_t& pool : lay.steps) pool = place(steps, sizeof(double));
  for (Lane& lane : lay.lanes)
    lane.idx = place(lane.count, sizeof(std::uint32_t));
  lay.bytes = bytes;
  list.allocate_block();

  // Pass 2: classify again and fill every array in entry order.
  std::byte* const block = list.block_;
  const auto doubles = [block](std::uint32_t offset) {
    return reinterpret_cast<double*>(block + offset);
  };
  const auto col = [&](int lane, int c) {
    return doubles(lay.lanes[lane].col[c]);
  };
  auto* const entries = reinterpret_cast<Entry*>(block + lay.entries);
  auto* const records = reinterpret_cast<Params*>(block + lay.records);
  double* const px = doubles(lay.px);
  double* const ps = doubles(lay.ps);
  // The step slabs start as identity steps (at = +inf, ratio == 1 exactly).
  const std::size_t slab_size = std::size_t{lay.nslots} * lay.stride;
  std::fill_n(doubles(lay.slabs[0]), slab_size,
              std::numeric_limits<double>::infinity());
  std::fill_n(doubles(lay.slabs[1]), slab_size, 1.0);
  std::fill_n(doubles(lay.slabs[2]), slab_size, 1.0);
  std::uint32_t filled[kLanes] = {};
  std::uint32_t point = 0, step = 0;
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    const SpeedFunction* f = speeds[i];
    const Classified cl = classify(*f);
    const LaneId lane = lane_for(cl);
    const std::uint32_t j = filled[lane]++;
    entries[i] = Entry{f, j, cl.family, cl.wrap, lane};
    reinterpret_cast<std::uint32_t*>(block + lay.lanes[lane].idx)[j] =
        static_cast<std::uint32_t>(i);
    Params p{cl.a, cl.b, cl.c, cl.d, 0.0, cl.max_size, cl.wrap_param, 0,
             cl.count};
    if (cl.family == Family::Unimodal) {
      p.d = cl.unimodal->decay_x0();
      p.e = cl.unimodal->decay_exponent();
    } else if (cl.family == Family::Piecewise) {
      p.offset = point;
      for (const SpeedPoint& pt : cl.piecewise->points()) {
        px[point] = pt.size;
        ps[point] = pt.speed;
        ++point;
      }
    } else if (cl.family == Family::Stepped) {
      // A lane entry's steps go to its slot of the slot-major slabs, an
      // unbatched entry's to the next run of the step pool.
      const bool in_lane = lane == kStepped;
      const std::uint32_t* arrays = in_lane ? lay.slabs : lay.steps;
      const std::size_t stride = in_lane ? lay.stride : 1;
      std::size_t off = in_lane ? j : step;
      if (!in_lane) {
        p.offset = step;
        step += cl.count;
      }
      double level = cl.a;
      for (const SteppedSpeed::Step& st : cl.stepped->steps()) {
        doubles(arrays[0])[off] = st.at;
        doubles(arrays[1])[off] = st.to / level;
        doubles(arrays[2])[off] = st.width;
        level = st.to;
        off += stride;
      }
    }
    if (lane == kOther) {
      records[j] = p;
      continue;
    }
    const double values[6] = {p.a, p.b, p.c, p.d, p.e, p.max_size};
    for (int c = 0; c < 6; ++c)
      if ((kLaneColumns[lane] >> c) & 1) col(lane, c)[j] = values[c];
  }
  // Pad every lane column to kMaxLanes (the widest compiled vector width)
  // by duplicating the last real element: whichever backend the runtime
  // dispatch picks then streams whole registers with the pad slots
  // computing harmless in-domain values that are never scattered (the
  // lane's count is the real one, and the per-entry path loops over it).
  for (int l = 0; l < kOther; ++l) {
    const std::uint32_t count = lay.lanes[l].count;
    if (count == 0) continue;
    const std::size_t padded = detail::simd::padded_size(count);
    for (int c = 0; c < 6; ++c) {
      if (((kLaneColumns[l] >> c) & 1) == 0) continue;
      double* column = col(l, c);
      std::fill(column + count, column + padded, column[count - 1]);
    }
  }
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

CompiledSpeedList::Params CompiledSpeedList::lane_params(
    LaneId lane, std::uint32_t j) const noexcept {
  const auto col = [&](int c) { return column(lane, c)[j]; };
  Params p;
  p.a = col(0);
  p.max_size = col(5);
  switch (lane) {
    case kLinear:
      p.b = col(1);
      p.c = col(2);
      break;
    case kPower:
      p.b = col(1);
      p.c = col(2);
      p.d = col(3);
      break;
    case kExp:
      p.b = col(1);
      p.d = col(3);
      break;
    case kUnimodal:
      p.b = col(1);
      p.c = col(2);
      p.d = col(3);
      p.e = col(4);
      break;
    case kStepped: {
      // The real steps are the leading finite `at` values of the lane slot
      // (vetting rejects non-finite ones; the rest are identity pad steps).
      p.offset = j;
      const double* at = ptr<double>(layout_.slabs[0]) + j;
      while (p.count < layout_.nslots &&
             at[std::size_t{p.count} * layout_.stride] !=
                 std::numeric_limits<double>::infinity())
        ++p.count;
      break;
    }
    default:  // kConstant
      break;
  }
  return p;
}

double CompiledSpeedList::raw_speed(const Entry& e, const Params& p,
                                    double x) const {
  switch (e.family) {
    case Family::Constant:
      return p.a;
    case Family::LinearDecay:
      return detail::linear_decay_speed(p.a, p.b, p.c, x);
    case Family::PowerDecay:
      return detail::power_decay_speed(p.a, p.b, p.c, x);
    case Family::ExpDecay:
      return detail::exp_decay_speed(p.a, p.b, x);
    case Family::Unimodal:
      return detail::unimodal_speed(p.a, p.b, p.c, p.d, p.e, x);
    case Family::Stepped: {
      // A batched entry's steps are its slot in the lane's slot-major
      // slabs; an unbatched one's are contiguous in the step pool.
      const bool in_lane = e.lane == kStepped;
      const std::uint32_t* arrays = in_lane ? layout_.slabs : layout_.steps;
      const std::size_t stride = in_lane ? layout_.stride : 1;
      const double* at = ptr<double>(arrays[0]) + p.offset;
      const double* ratio = ptr<double>(arrays[1]) + p.offset;
      const double* width = ptr<double>(arrays[2]) + p.offset;
      double s = p.a;
      for (std::size_t k = 0; k < p.count * stride; k += stride)
        s *= detail::stepped_step_blend(at[k], ratio[k], width[k], x);
      return s;
    }
    case Family::Piecewise: {
      const double* px = ptr<double>(layout_.px) + p.offset;
      const double* ps = ptr<double>(layout_.ps) + p.offset;
      const std::uint32_t last = p.count - 1;
      if (x <= px[0]) return ps[0];
      if (x >= px[last])
        return detail::piecewise_tail_speed(ps[last], p.b, p.a, x - px[last]);
      // Branchless segment lookup over the SoA breakpoints: narrow to the
      // last index with px <= x using conditional selects (no data-dependent
      // branches), exactly the segment std::upper_bound picks on the AoS
      // points — including the tie case x == px[j], which lands on the
      // segment starting at j either way.
      std::uint32_t base = 0;
      std::uint32_t len = last;  // candidates [0, count-2]
      while (len > 1) {
        const std::uint32_t half = len >> 1;
        const bool go_right = px[base + half] <= x;
        base = go_right ? base + half : base;
        len = go_right ? len - half : half;
      }
      return detail::piecewise_segment_speed(px[base], ps[base], px[base + 1],
                                             ps[base + 1], x);
    }
    case Family::Generic:
      break;
  }
  return e.base->speed(x);
}

double CompiledSpeedList::entry_speed(const Entry& e, const Params& p,
                                      double x) const {
  switch (e.wrap) {
    case Wrap::Scaled:
      return p.wrap_param * raw_speed(e, p, x);
    case Wrap::Granular:
      return raw_speed(e, p, x * p.wrap_param) / p.wrap_param;
    case Wrap::None:
      break;
  }
  return raw_speed(e, p, x);
}

double CompiledSpeedList::entry_intersect(const Entry& e, const Params& p,
                                          double slope) const {
  assert(slope > 0.0);
  if (e.family == Family::Generic) return e.base->intersect(slope);
  if (e.wrap != Wrap::None) {
    // The wrappers do not override intersect() on the virtual side, so the
    // compiled side runs the same generic bisection over the same speed
    // values (virtual dispatch removed, arithmetic unchanged).
    return detail::generic_intersect(
        [&](double x) { return entry_speed(e, p, x); }, p.max_size, slope);
  }
  switch (e.family) {
    case Family::Constant:
      return detail::constant_intersect(p.a, slope);
    case Family::LinearDecay:
      return detail::linear_decay_intersect(p.a, p.b, p.c, slope);
    case Family::PowerDecay:
      return detail::power_decay_intersect(p.a, p.b, p.c, p.d, slope);
    case Family::ExpDecay:
      return detail::exp_decay_intersect(p.a, p.b, p.d, slope);
    case Family::Piecewise: {
      // Mirrors PiecewiseLinearSpeed::intersect() step for step, reading the
      // SoA slabs.
      const double* px = ptr<double>(layout_.px) + p.offset;
      const double* ps = ptr<double>(layout_.ps) + p.offset;
      const std::uint32_t last = p.count - 1;
      const double b = px[last];
      if (raw_speed(e, p, b) >= slope * b)
        return detail::piecewise_tail_intersect(b, ps[last], p.b, p.a, slope);
      if (slope * px[0] >= ps[0]) return ps[0] / slope;
      std::uint32_t lo = 0;
      std::uint32_t hi = last;
      const detail::simd::SimdKernels* kern = active_kernels();
      if (kern != nullptr && p.count >= 16) {
        // Vectorized bracketing scan over the SoA slab: count the segment
        // starts still above the line. The predicate ps > slope·px is the
        // exact comparison of the binary search below, and the model's
        // decreasing speed(x)/x invariant makes it a true-prefix, so
        // (count_above - 1) is the same bracketing segment the binary
        // search lands on — bit-identically, since the arithmetic on the
        // selected segment is unchanged. The clamp only matters for
        // invalid (non-monotone) data, where either path is best-effort.
        const std::size_t above =
            kern->piecewise_count_above(px, ps, p.count, slope);
        lo = static_cast<std::uint32_t>(
            std::clamp<std::size_t>(above, 1, last) - 1);
        hi = lo + 1;
      } else {
        while (hi - lo > 1) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (ps[mid] > slope * px[mid])
            lo = mid;
          else
            hi = mid;
        }
      }
      // The segment's slope, with the exact expression of
      // PiecewiseLinearSpeed::intersect, so the segment solve gets the m
      // the virtual model computes.
      const double m = (ps[hi] - ps[lo]) / (px[hi] - px[lo]);
      return detail::piecewise_segment_intersect(px[lo], ps[lo], m, slope,
                                                 px[lo], px[hi]);
    }
    case Family::Unimodal:
    case Family::Stepped:
      // No closed form on the virtual side either: same generic bisection.
      return detail::generic_intersect(
          [&](double x) { return raw_speed(e, p, x); }, p.max_size, slope);
    case Family::Generic:
      break;
  }
  return e.base->intersect(slope);
}

// Flattened: the fine-tune pops and the Figure-18 probe call speed() once
// per entry, and inlining the lane-slot gather and the family dispatch
// into it spares each call a parameter record built on the stack (a p = 64
// fine-tune took 1.04 µs without it and 0.93 µs with it, against 0.95 µs
// with parameters stored in each entry; x86-64, GCC 12, -O3).
[[gnu::flatten]] double CompiledSpeedList::speed(std::size_t i,
                                                 double x) const {
  const Entry& e = entry(i);
  if (e.lane == kOther) return entry_speed(e, record(e.slot), x);
  // Lane entries are unwrapped.
  return raw_speed(e, lane_params(e.lane, e.slot), x);
}

double CompiledSpeedList::intersect(std::size_t i, double slope) const {
  const Entry& e = entry(i);
  if (e.lane == kOther) return entry_intersect(e, record(e.slot), slope);
  return entry_intersect(e, lane_params(e.lane, e.slot), slope);
}

/// One batch task of intersect_all: a batch lane, or the unbatched list
/// (kOther), whose entries take the per-entry solve. Chunks address ranges
/// of the lane's real (unpadded) entries.
struct CompiledSpeedList::LaneSweep {
  LaneId lane = kOther;
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
  const std::uint32_t* idx = lane_idx(sweep.lane);
  if (sweep.lane == kOther) {
    // The unbatched list: the per-entry solve. Slot j of this list is
    // parameter record j, so the record is read beside its entry, not
    // through the entry's slot.
    for (std::size_t j = begin; j < end; ++j)
      out[idx[j]] = entry_intersect(entry(idx[j]),
                                    record(static_cast<std::uint32_t>(j)),
                                    slope);
    return;
  }
  if (sweep.kern == nullptr) {
    // Scalar mode: the per-entry solve, the one exact solve every vector
    // lane is checked against.
    for (std::size_t j = begin; j < end; ++j)
      out[idx[j]] = intersect(idx[j], slope);
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
  const auto col = [&](int c) { return column(sweep.lane, c) + begin; };
  switch (sweep.lane) {
    case kConstant:
      sweep.kern->constant_batch(col(0), mpad, slope, block);
      break;
    case kLinear:
      sweep.kern->linear_batch(col(0), col(1), col(2), mpad, slope, block);
      break;
    case kPower:
      sweep.kern->power_batch(col(0), col(1), col(2), col(3), mpad, slope,
                              block);
      break;
    case kExp:
      sweep.kern->exp_batch(col(0), col(1), mpad, slope, block);
      break;
    case kUnimodal:
      sweep.kern->unimodal_batch(col(0), col(1), col(2), col(3), col(4),
                                 col(5), mpad, slope, block);
      break;
    default: {
      // The slot-major slabs share the lane slot indexing of a/f, so
      // offsetting every slab pointer by `begin` (keeping the full-lane
      // stride) lands slot s of chunk element j at [s·stride + begin + j]
      // as laid out.
      const auto slab = [&](int k) {
        return ptr<double>(layout_.slabs[k]) + begin;
      };
      sweep.kern->stepped_batch(col(0), col(5), slab(0), slab(1), slab(2),
                                mpad, layout_.stride, layout_.nslots, slope,
                                block);
      break;
    }
  }
  if (sweep.lane <= kLinear) {
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
      x = intersect(idx[begin + j], slope);
      ++scalar_fixups;
    }
    out[idx[begin + j]] = x;
  }
}

void CompiledSpeedList::intersect_all(double slope,
                                      std::span<double> out) const {
  assert(out.size() == size());
  const detail::simd::SimdKernels* kern = active_kernels();

  LaneSweep sweeps[kLanes];
  std::size_t nsweeps = 0;
  for (int l = 0; l < kLanes; ++l)
    if (layout_.lanes[l].count != 0)
      sweeps[nsweeps++] = LaneSweep{static_cast<LaneId>(l), kern};
  const auto lane_count = [this](const LaneSweep& sweep) -> std::size_t {
    return layout_.lanes[sweep.lane].count;
  };

  std::int64_t fixups = 0;
  bool split = false;
  if (size() >= parallel_intersect_threshold() &&
      detail::lane_pool_threads() > 0) {
    struct Task {
      const LaneSweep* sweep;
      std::size_t begin, end;
    };
    std::vector<Task> tasks;
    tasks.reserve(size() / kLaneChunk + nsweeps);
    for (std::size_t i = 0; i < nsweeps; ++i) {
      const std::size_t count = lane_count(sweeps[i]);
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
      const std::size_t count = lane_count(sweeps[i]);
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
  const auto batched = static_cast<std::int64_t>(batched_entries());
  const auto other = static_cast<std::int64_t>(layout_.lanes[kOther].count);
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
  assert(xs.size() == size() && out.size() == size());
  const detail::simd::SimdKernels* kern = active_kernels();
  const auto scalar_lane = [&](LaneId lane) {
    const std::uint32_t* idx = lane_idx(lane);
    const std::uint32_t count = layout_.lanes[lane].count;
    for (std::uint32_t j = 0; j < count; ++j)
      out[idx[j]] = speed(idx[j], xs[idx[j]]);
  };
  // Constant/linear entries are cheap per-entry scalar evaluations (a
  // select, a division, a couple of multiplies). Unimodal and stepped
  // entries are not cheap — a libm pow, or up to kMaxVecSteps libm tanh
  // calls — but they are rare in the fleets measured so far, so they stay
  // scalar too; the libm pow/exp of the power/exp lanes is where the
  // sweep's time goes, so those two lanes take the vector speed kernels
  // when a backend is active.
  scalar_lane(kConstant);
  scalar_lane(kLinear);
  scalar_lane(kUnimodal);
  scalar_lane(kStepped);
  scalar_lane(kOther);
  if (kern == nullptr) {
    scalar_lane(kPower);
    scalar_lane(kExp);
    return;
  }
  // Gather xs through idx into an on-stack block of up to kLaneChunk sizes
  // (pad slots duplicate the last real size: in-domain, never scattered
  // back), run the kernel over the block in place, fix up NaN punts with
  // the exact scalar evaluation; chunks start on multiples of kLaneChunk,
  // as in lane_chunk_intersect. Every xs[i] is read before out[i] is
  // written, so out may alias xs.
  const auto vector_lane = [&](LaneId lane) {
    const std::size_t count = layout_.lanes[lane].count;
    const std::uint32_t* idx = lane_idx(lane);
    for (std::size_t begin = 0; begin < count; begin += kLaneChunk) {
      const std::size_t m = std::min(kLaneChunk, count - begin);
      const std::size_t mpad = detail::simd::padded_size(m, kern->width);
      alignas(64) double block[kLaneChunk];
      for (std::size_t j = 0; j < m; ++j) block[j] = xs[idx[begin + j]];
      for (std::size_t j = m; j < mpad; ++j) block[j] = block[m - 1];
      const auto col = [&](int c) { return column(lane, c) + begin; };
      if (lane == kPower)
        kern->power_speed_batch(col(0), col(1), col(2), block, mpad, block);
      else
        kern->exp_speed_batch(col(0), col(1), block, mpad, block);
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint32_t i = idx[begin + j];
        out[i] = std::isnan(block[j]) ? speed(i, xs[i]) : block[j];
      }
    }
  };
  vector_lane(kPower);
  vector_lane(kExp);
}

void speeds_at(const CompiledSpeedList& speeds, std::span<const double> xs,
               EvalCounters* counters, std::span<double> out) {
  speeds.speed_all(xs, out);
  if (counters)
    counters->speed_evals += static_cast<std::int64_t>(speeds.size());
}

std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs,
                              EvalCounters* counters) {
  std::vector<double> out(speeds.size());
  speeds_at(speeds, xs, counters, out);
  return out;
}

namespace {

/// The entry-order sum of a solved line: lane-local partial sums would
/// reorder the floating-point additions and break bit-identity with the
/// per-entry path.
double line_total(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum;
}

}  // namespace

// Every compiled line solve goes through here, and is counted here.
void sizes_at(const CompiledSpeedList& speeds, double slope,
              EvalCounters* counters, std::span<double> out) {
  speeds.intersect_all(slope, out);
  if (counters)
    counters->intersect_solves += static_cast<std::int64_t>(speeds.size());
}

std::vector<double> sizes_at(const CompiledSpeedList& speeds, double slope,
                             EvalCounters* counters) {
  std::vector<double> xs(speeds.size());
  sizes_at(speeds, slope, counters, xs);
  return xs;
}

double total_size_at(const CompiledSpeedList& speeds, double slope,
                     EvalCounters* counters) {
  std::vector<double> sizes(speeds.size());
  sizes_at(speeds, slope, counters, sizes);
  return line_total(sizes);
}

SlopeBracket figure18_probe(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters,
                            std::vector<double>& scratch,
                            double* mean_slope) {
  const double probe =
      static_cast<double>(n) / static_cast<double>(speeds.size());
  scratch.resize(speeds.size());
  for (std::size_t i = 0; i < speeds.size(); ++i)
    scratch[i] = std::min(probe, speeds.max_size(i));
  speeds_at(speeds, scratch, counters, scratch);
  double s_min = std::numeric_limits<double>::infinity();
  double s_max = 0.0;
  double s_sum = 0.0;
  for (const double s : scratch) {
    s_min = std::min(s_min, s);
    s_max = std::max(s_max, s);
    s_sum += s;
  }
  if (mean_slope != nullptr) *mean_slope = s_sum / static_cast<double>(n);
  SlopeBracket br;
  br.hi_slope = s_max / probe;  // line 1 of Figure 18
  br.lo_slope = s_min / probe;  // line 2 of Figure 18
  if (br.lo_slope <= 0.0) br.lo_slope = br.hi_slope * 1e-12;
  return br;
}

SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters, std::vector<double>* small,
                            std::vector<double>* large) {
  // Counting profile: one speed probe per processor, one solve batch per
  // expansion test. The SpeedList overload in partition.cpp forwards here.
  if (speeds.size() == 0)
    throw std::invalid_argument("detect_bracket: no speeds");
  if (n < 1) throw std::invalid_argument("detect_bracket: n must be >= 1");
  std::vector<double> hi_local, lo_local;
  std::vector<double>& hi_sizes = small != nullptr ? *small : hi_local;
  std::vector<double>& lo_sizes = large != nullptr ? *large : lo_local;
  SlopeBracket br = figure18_probe(speeds, n, counters, hi_sizes);
  // Figure 18's construction guarantees the bracket under the shape
  // requirement; the expansion loops below make the function total for any
  // inputs. Intersections extend beyond the modelled ranges (see
  // SpeedFunction::intersect), so the total size is unbounded as the slope
  // approaches zero and the shallow expansion always terminates. Each test
  // keeps its solved sizes, so the final lines come back without a re-solve.
  double total = 0.0;
  br.hi_slope = solve_bracket_line(speeds, n, br.hi_slope, true, counters,
                                   hi_sizes, total);
  br.lo_slope = solve_bracket_line(speeds, n, br.lo_slope, false, counters,
                                   lo_sizes, total);
  if (br.lo_slope > br.hi_slope) {
    std::swap(br.lo_slope, br.hi_slope);
    hi_sizes.swap(lo_sizes);
  }
  return br;
}

double solve_bracket_line(const CompiledSpeedList& speeds, std::int64_t n,
                          double slope, bool steep, EvalCounters* counters,
                          std::vector<double>& sizes, double& total) {
  const double nd = static_cast<double>(n);
  sizes.resize(speeds.size());
  const auto wrong_side = [&] {
    sizes_at(speeds, slope, counters, sizes);
    total = line_total(sizes);
    return steep ? total > nd : total < nd;
  };
  bool wrong = wrong_side();
  for (int i = 0; i < 256 && wrong; ++i) {
    slope = steep ? slope * 2.0 : slope * 0.5;
    wrong = wrong_side();
  }
  return slope;
}

}  // namespace fpm::core
