// Compiled speed models: a SpeedList flattened into contiguous,
// tag-dispatched arrays so the partitioners' hot loops run without virtual
// calls and with closed-form intersections wherever a family has one.
//
// CompiledSpeedList::compile() recognizes every analytic family shipped in
// core/speed_function.hpp plus PiecewiseLinearSpeed (whose breakpoints are
// re-laid out as structure-of-arrays slabs with a branchless segment
// lookup), and one level of ScaledSpeed / GranularSpeed / GranularSpeedView
// wrapping around them. Anything else falls back to a Generic entry that
// forwards to the original virtual object, so compilation is total: every
// SpeedList compiles, and in scalar mode the result is bit-identical to
// the virtual models because both sides evaluate the shared kernels of
// detail/speed_kernels.hpp (asserted in tests against a list wrapped so
// that every entry compiles to Generic).
//
// detail::SearchState compiles its input once per search and runs every
// line solve through intersect_all, so all five registry algorithms search
// on compiled models; the batch/server layer (core/server.hpp) keys its
// cache with the fingerprint() content hash plus a check word from the
// same walk. force_simd_backend() is the one runtime switch: it picks the
// vector backend of the batch lanes, or "off" for the bit-exact scalar
// mode.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/partition.hpp"
#include "core/speed_function.hpp"
#include "util/aligned.hpp"

namespace fpm::core {

/// Counters incremented at the SpeedFunction boundary: one per speed(x)
/// evaluation and one per c·x = s(x) solve, exactly the accounting of
/// PartitionStats::speed_evals / intersect_solves. Evaluations *inside* a
/// solve (e.g. the probes of a generic bisection) are not counted.
struct EvalCounters {
  std::int64_t speed_evals = 0;
  std::int64_t intersect_solves = 0;
};

class CompiledSpeedList {
 public:
  /// Which evaluation kernel an entry dispatches to.
  enum class Family : std::uint8_t {
    Generic,      ///< unknown subclass: forwards to the virtual object
    Constant,
    LinearDecay,
    PowerDecay,
    ExpDecay,
    Unimodal,
    Stepped,
    Piecewise,
  };

  /// How the entry's kernel is wrapped (one level deep).
  enum class Wrap : std::uint8_t {
    None,
    Scaled,    ///< speed = factor · inner(x)
    Granular,  ///< speed = inner(x·k) / k, max_size = inner's / k
  };

  /// Flattens `speeds` into compiled entries. The input objects must
  /// outlive the compiled list (Generic entries keep pointers; all entries
  /// keep one for introspection). Two passes and no regrowth: the
  /// classification walk fills the entries, folds the fingerprint and
  /// counts every batch lane and pool; then each lane column and pool is
  /// reserved once, at its final padded size, and filled. The number of
  /// allocations therefore depends on which lanes and pools are non-empty,
  /// not on the list's length.
  static CompiledSpeedList compile(const SpeedList& speeds);

  std::size_t size() const noexcept { return entries_.size(); }
  Family family(std::size_t i) const noexcept { return entries_[i].family; }
  Wrap wrap(std::size_t i) const noexcept { return entries_[i].wrap; }
  double max_size(std::size_t i) const noexcept {
    return entries_[i].max_size;
  }
  /// The original object behind entry i.
  const SpeedFunction* base(std::size_t i) const noexcept {
    return entries_[i].base;
  }
  /// True when no entry needed the Generic virtual fallback.
  bool fully_compiled() const noexcept { return generic_entries_ == 0; }
  std::size_t generic_entries() const noexcept { return generic_entries_; }

  /// Absolute speed of processor i at size x — switch-dispatched, no
  /// virtual call except for Generic entries.
  double speed(std::size_t i, double x) const;

  /// Solves slope·x = s_i(x), using the family's closed form where one
  /// exists and the shared generic bisection otherwise.
  double intersect(std::size_t i, double slope) const;

  /// Solves slope·x = s_i(x) for every entry in one structure-of-arrays
  /// pass: when a SIMD backend is active, the closed-form families
  /// (Constant, LinearDecay, PowerDecay, ExpDecay, unwrapped) plus
  /// parameter-vetted unwrapped Unimodal/Stepped entries run through the
  /// vector kernels (detail/simd.hpp) out of contiguous parameter lanes
  /// built at compile time; every other entry, and every entry in scalar
  /// mode, takes the per-entry solve of intersect(i, slope). out.size()
  /// must equal size(). In scalar mode (force_simd_backend("off"), or
  /// FPM_SIMD=OFF) this is therefore bit-identical to calling
  /// intersect(i, slope) per entry; with SIMD on, Constant/LinearDecay
  /// lanes and the piecewise scan stay bit-identical while
  /// PowerDecay/ExpDecay roots, the Unimodal bisection and the Stepped
  /// Newton solve may differ by a few ULP from the scalar bisection's
  /// fixpoint (decision boundaries are punted to the per-entry solve — see
  /// force_simd_backend below and docs/performance.md).
  void intersect_all(double slope, std::span<double> out) const;

  /// Evaluates speed(i, xs[i]) for every entry in one pass — the fine-tune
  /// epilogue's hot loop (core/finetune.cpp seeds its award heap from one
  /// such sweep instead of p virtual calls). The PowerDecay/ExpDecay lanes
  /// gather their sizes and run the vector speed kernels (NaN punts fixed
  /// up scalar, same contract as intersect_all); every other entry takes
  /// the per-entry dispatch, which is bit-identical to speed(i, xs[i]).
  /// In scalar mode the whole sweep is the per-entry loop, bit-identical to
  /// calling speed() yourself.
  void speed_all(std::span<const double> xs, std::span<double> out) const;

  /// How many entries run through a batch lane (the rest take the
  /// per-entry fallback inside intersect_all).
  std::size_t batched_entries() const noexcept {
    return entries_.size() - batch_other_.size();
  }

  /// Content hash over (family, wrap, parameters, breakpoints) of every
  /// entry, in order — equal model lists hash equal regardless of object
  /// identity. Each field's 64-bit pattern is one word, folded into one of
  /// four independent SplitMix64 chains by a step that is a bijection of
  /// the word; the word's chain is fixed by its slot in the entry, and the
  /// four chain states are folded in order at the end. So lists of one
  /// length that differ in exactly one field (including -0.0 vs 0.0) never
  /// hash equal: only that field's chain ends in a different state, and
  /// the final fold is a chain of bijections. Generic entries hash their
  /// object address instead (identity semantics): two structurally equal
  /// unknown subclasses never hash equal, and a model freed and replaced
  /// by another at the same address hashes the same, so a fingerprint
  /// with a Generic entry must not key a result cache (the partition
  /// server skips its cache for such lists).
  std::uint64_t fingerprint() const noexcept { return fingerprint_; }

  /// The fingerprint `compile(speeds)` would produce, computed without
  /// materializing the compiled entries or SoA pools (no allocations).
  /// This is the cache-key fast path of core/server.hpp: a cache hit needs
  /// only the key, so it must not pay for a full compilation. compile()
  /// folds the same per-entry hash inside its own classification walk, so
  /// the two cannot diverge. When `generic` is given it receives whether
  /// any entry was Generic — hashed by address, so the fingerprint names
  /// the objects rather than their content (see fingerprint()). When
  /// `check` is given it receives a second 64-bit word from the same walk:
  /// a second fold of the four chain states, plus each chain's running sum
  /// of its pre-finalizer values, so a collision inside one chain does not
  /// carry into it. The server appends it to its result-cache key, so a
  /// cache hit needs a 128-bit match (docs/serving.md gives the odds).
  static std::uint64_t fingerprint_of(const SpeedList& speeds,
                                      bool* generic = nullptr,
                                      std::uint64_t* check = nullptr);

 private:
  struct Entry {
    Family family = Family::Generic;
    Wrap wrap = Wrap::None;
    bool batched = false;     ///< rides a batch lane (else batch_other_)
    double wrap_param = 1.0;  ///< Scaled: factor; Granular: elements/item
    double max_size = 0.0;    ///< after wrapping
    // Analytic parameters (meaning depends on family):
    //   Constant     a = s0
    //   LinearDecay  a = s0, b = B (inner max_size), c = floor
    //   PowerDecay   a = s0, b = x0, c = k, d = inner max_size
    //   ExpDecay     a = s0, b = lambda, d = inner max_size
    //   Unimodal     a = s_low, b = s_peak, c = x_peak (+ pool: x0, k)
    //   Stepped      a = s0; steps in the step pool
    //   Piecewise    breakpoints in the SoA pools; a = floor, b = tail slope
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0;
    std::uint32_t offset = 0;  ///< first pool index (piecewise/stepped/aux)
    std::uint32_t count = 0;   ///< pool element count
    const SpeedFunction* base = nullptr;
  };

  double raw_speed(const Entry& e, double x) const;
  double entry_speed(const Entry& e, double x) const;
  double entry_intersect(const Entry& e, double slope) const;

  /// One SoA lane of the batch plan: the destination entry indices plus the
  /// parameter columns the family's vector kernel consumes. Columns are
  /// 64-byte aligned and padded to detail::simd::kMaxLanes — the *widest*
  /// compiled vector width, so the runtime-dispatched backend can stream
  /// whole registers at either width without reading past the pool (pad
  /// slots duplicate the last real element); idx keeps the real entry
  /// count, and scalar mode never reads the columns (it solves each idx
  /// entry on its own). e/f are only populated for the unimodal lane
  /// (d=decay_x0, e=decay_exponent, f=max_size).
  struct BatchLane {
    using Column = std::vector<double, util::AlignedAllocator<double, 64>>;
    std::vector<std::uint32_t> idx;
    Column a, b, c, d, e, f;
    bool empty() const noexcept { return idx.empty(); }
  };

  /// SoA lane for vetted Stepped entries: per-entry s0/max_size columns
  /// plus slot-major step slabs (`nslots` columns of `stride` doubles; the
  /// s-th step of entry j lives at [s·stride + j]). Entries with more than
  /// kMaxVecSteps steps, or with parameters outside the vector kernels'
  /// domain, stay in batch_other_ ("irregular" punt at compile time).
  /// Unused slots hold the identity step (at=+inf, ratio=1, width=1);
  /// `ratio` is the step's to/level factor precomputed at compile time —
  /// the same division the scalar kernel performs per evaluation.
  struct SteppedLane {
    using Column = std::vector<double, util::AlignedAllocator<double, 64>>;
    std::vector<std::uint32_t> idx;
    Column a, f;                ///< s0, max_size (padded like BatchLane)
    Column at, ratio, width;    ///< nslots × stride slot-major slabs
    std::size_t nslots = 0;
    std::size_t stride = 0;     ///< padded idx count (kMaxLanes multiple)
    bool empty() const noexcept { return idx.empty(); }
  };

  /// Most steps a SteppedSpeed may have and still ride the vector lane.
  static constexpr std::size_t kMaxVecSteps = 8;

  struct LaneSweep;  // one chunk-parallel batch task (compiled.cpp)
  void lane_chunk_intersect(const LaneSweep& sweep, std::size_t begin,
                            std::size_t end, double slope,
                            std::span<double> out,
                            std::int64_t& scalar_fixups) const;

  std::vector<Entry> entries_;
  // Batch plan for intersect_all(), grouped at compile time: one lane per
  // closed-form family (unwrapped entries only), iterative lanes for the
  // vetted unimodal/stepped entries, and an index list for everything else.
  BatchLane lane_constant_;
  BatchLane lane_linear_;
  BatchLane lane_power_;
  BatchLane lane_exp_;
  BatchLane lane_unimodal_;
  SteppedLane lane_stepped_;
  std::vector<std::uint32_t> batch_other_;
  // Piecewise SoA slabs (all functions concatenated; entry.offset/count
  // delimit a function's breakpoints, segment i spans [i, i+1]):
  std::vector<double> px_;  ///< breakpoint sizes
  std::vector<double> ps_;  ///< breakpoint speeds
  std::vector<double> pm_;  ///< per-segment slopes (count-1 per function)
  // Stepped pool:
  std::vector<SteppedSpeed::Step> steps_;
  // Auxiliary analytic parameters that overflow Entry::a..d (Unimodal):
  std::vector<double> aux_;
  std::size_t generic_entries_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Compiled counterparts of the SpeedList helpers in core/partition.hpp:
/// one intersect_all sweep per line, optional counting (pass nullptr to
/// skip it). In scalar mode the sizes are bit-identical to solving each
/// virtual model in turn. `counters` is deliberately not defaulted:
/// two-argument calls must keep resolving to the SpeedList overloads (e.g.
/// detect_bracket({}, n)). detect_bracket's optional `small`/`large` receive the sizes at the
/// returned hi/lo slopes, exactly as sizes_at would compute them.
std::vector<double> sizes_at(const CompiledSpeedList& speeds, double slope,
                             EvalCounters* counters);
double total_size_at(const CompiledSpeedList& speeds, double slope,
                     EvalCounters* counters);
SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters,
                            std::vector<double>* small = nullptr,
                            std::vector<double>* large = nullptr);

/// Batched counterpart of `speeds.speed(i, xs[i])` per entry (one
/// CompiledSpeedList::speed_all sweep, counted like p boundary
/// evaluations). The fine-tune epilogue's seeding pass.
std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs,
                              EvalCounters* counters);

/// Which vector implementation intersect_all's batch lanes are running on.
enum class SimdBackend : std::uint8_t {
  Disabled,  ///< scalar mode: force_simd_backend("off"), or FPM_SIMD=OFF
  Portable,  ///< GCC vector-extension codegen under the baseline flags
  Avx2,      ///< AVX2+FMA 4-wide variant (runtime-dispatched or -march)
  Avx512,    ///< AVX-512F/DQ 8-wide variant (runtime-dispatched or -march)
  Neon,      ///< AArch64 baseline codegen (the portable variant's name there)
};

/// Lower-case name for CLI/JSON/metrics surfaces: "off", "portable",
/// "avx2", "avx512", "neon".
const char* to_string(SimdBackend backend) noexcept;

/// Selects the backend of the batch sweeps (intersect_all, speed_all and
/// the piecewise scan) for the whole process. Accepts "auto" (the best
/// variant this CPU supports — the default), "off" (the bit-exact scalar
/// mode), or a backend name ("portable", "avx2", "avx512", "neon"). Throws
/// std::invalid_argument when the name is not a variant compiled into this
/// build or the CPU lacks the instruction set; the selection is then
/// unchanged. The FPM_SIMD_BACKEND environment variable sets the initial
/// selection, read once at the first sweep or the first call here,
/// whichever comes first (invalid values are ignored by the library and
/// rejected loudly by fpmtool). An explicit call always overrides the
/// environment, whatever the order — the mechanism behind
/// `fpmtool partition --simd=...`.
///
/// Scalar mode is the oracle: per-entry intersect(i, slope) and every
/// sweep in scalar mode are bit-identical to the virtual models. The
/// vector backends are not bit-neutral: the power/exp kernels replace libm
/// with polynomial exp/log and may differ in the last ULPs (the
/// constant/linear lanes and the piecewise scan stay bit-identical); they
/// are gated by toleranced equivalence plus exact optimality invariants in
/// tests/test_simd.cpp.
void force_simd_backend(std::string_view name);

/// True when the build carries the vector kernels at all (FPM_SIMD=ON),
/// whichever backend is selected.
bool simd_kernels_available() noexcept;

/// The backend intersect_all would use right now; SimdBackend::Disabled
/// in scalar mode.
SimdBackend active_simd_backend() noexcept;

/// Entry-count threshold (default 1024) above which intersect_all splits
/// its batch lanes into chunks across the detail lane pool (the calling
/// thread participates; with no helper threads the sweep stays serial).
/// Results are bit-identical either way: chunks write disjoint ranges and
/// reductions stay in entry order.
std::size_t parallel_intersect_threshold() noexcept;
void set_parallel_intersect_threshold(std::size_t entries) noexcept;

/// RAII thread-local hint installing an already-compiled model for a
/// specific SpeedList: while in scope, detail::SearchState construction
/// over an *identical* list (same pointers, same order) reuses `compiled`
/// instead of compiling again. The batch server compiles each request once
/// and wraps the engine call in a guard, halving the per-miss compile work;
/// nested guards save and restore the outer hint. `speeds` and `compiled`
/// must outlive the guard.
class PrecompiledGuard {
 public:
  PrecompiledGuard(const SpeedList& speeds,
                   const CompiledSpeedList& compiled) noexcept;
  ~PrecompiledGuard();
  PrecompiledGuard(const PrecompiledGuard&) = delete;
  PrecompiledGuard& operator=(const PrecompiledGuard&) = delete;

 private:
  const SpeedList* prev_speeds_;
  const CompiledSpeedList* prev_compiled_;
};

/// The currently installed hint when it was built from `speeds` (element-
/// wise pointer equality); nullptr otherwise.
const CompiledSpeedList* precompiled_match(const SpeedList& speeds) noexcept;

}  // namespace fpm::core
