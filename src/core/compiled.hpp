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
// The engine, core::partition(const CompiledSpeedList&, ...), takes the
// compiled list as an argument and detail::SearchState runs every line
// solve on it through intersect_all, so all five registry algorithms search
// on compiled models; a caller that solves one model set many times
// compiles it once. The batch/server layer (core/server.hpp) keys its
// cache with the fingerprint() content hash plus a check word from the
// same walk. force_simd_backend() is the one runtime switch: it picks the
// vector backend of the batch lanes, or "off" for the bit-exact scalar
// mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/partition.hpp"
#include "core/speed_function.hpp"

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

  /// An empty list (size() == 0, no storage).
  CompiledSpeedList() noexcept = default;
  /// A copy is one allocation and one memcpy of the block; a move takes
  /// the block over and leaves the source empty.
  CompiledSpeedList(const CompiledSpeedList& other);
  CompiledSpeedList(CompiledSpeedList&& other) noexcept;
  CompiledSpeedList& operator=(const CompiledSpeedList& other);
  CompiledSpeedList& operator=(CompiledSpeedList&& other) noexcept;

  /// Flattens `speeds` into compiled entries. The input objects must
  /// outlive the compiled list (Generic entries keep pointers; all entries
  /// keep one for introspection). Two classification walks and one
  /// allocation: the first walk folds the fingerprint and counts every
  /// batch lane and pool, which fixes the offset of every array inside one
  /// 64-byte-aligned block; the second fills the block. A non-empty list
  /// therefore makes exactly one allocation, whatever its length and
  /// families, and an empty one makes none.
  static CompiledSpeedList compile(const SpeedList& speeds);

  std::size_t size() const noexcept { return layout_.size; }
  Family family(std::size_t i) const noexcept { return entry(i).family; }
  Wrap wrap(std::size_t i) const noexcept { return entry(i).wrap; }
  double max_size(std::size_t i) const noexcept {
    const Entry& e = entry(i);
    return e.lane != kOther ? column(e.lane, 5)[e.slot]
                            : record(e.slot).max_size;
  }
  /// The original object behind entry i.
  const SpeedFunction* base(std::size_t i) const noexcept {
    return entry(i).base;
  }
  /// True when no entry needed the Generic virtual fallback.
  bool fully_compiled() const noexcept {
    return layout_.generic_entries == 0;
  }
  std::size_t generic_entries() const noexcept {
    return layout_.generic_entries;
  }

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
  /// epilogue's hot loop (core/finetune.cpp seeds its awards from one
  /// such sweep instead of p virtual calls). The PowerDecay/ExpDecay lanes
  /// gather their sizes and run the vector speed kernels (NaN punts fixed
  /// up scalar, same contract as intersect_all); every other entry takes
  /// the per-entry dispatch, which is bit-identical to speed(i, xs[i]).
  /// In scalar mode the whole sweep is the per-entry loop, bit-identical to
  /// calling speed() yourself. Every xs[i] is read before out[i] is
  /// written, so out may be xs itself.
  void speed_all(std::span<const double> xs, std::span<double> out) const;

  /// How many entries run through a batch lane (the rest take the
  /// per-entry fallback inside intersect_all).
  std::size_t batched_entries() const noexcept {
    return layout_.size - layout_.lanes[kOther].count;
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
  std::uint64_t fingerprint() const noexcept { return layout_.fingerprint; }

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
  /// The lanes of the batch plan: one per closed-form family (unwrapped
  /// entries only), the iterative lanes for vetted unwrapped Unimodal and
  /// Stepped entries, and the unbatched list, whose entries take the
  /// per-entry solve (and whose slots index the parameter records).
  enum LaneId : std::uint8_t {
    kConstant,
    kLinear,
    kPower,
    kExp,
    kUnimodal,
    kStepped,
    kOther,
    kLanes,
  };

  /// One row of the per-entry table: what dispatch and the public
  /// accessors need. A batched entry's parameters live in its lane's
  /// columns at `slot`; every other entry's (lane kOther) in parameter
  /// record `slot` (the entry's position in the unbatched list).
  struct Entry {
    const SpeedFunction* base = nullptr;
    std::uint32_t slot = 0;
    Family family = Family::Generic;
    Wrap wrap = Wrap::None;
    LaneId lane = kOther;
  };

  /// One entry's parameters, named like the lane columns a..e:
  ///   Constant     a = s0
  ///   LinearDecay  a = s0, b = B (inner max_size), c = floor
  ///   PowerDecay   a = s0, b = x0, c = k, d = inner max_size
  ///   ExpDecay     a = s0, b = lambda, d = inner max_size
  ///   Unimodal     a = s_low, b = s_peak, c = x_peak, d = decay_x0,
  ///                e = decay_exponent
  ///   Stepped      a = s0; steps [offset, offset + count) of the step
  ///                pool (batched: lane slot `offset` of the step slabs)
  ///   Piecewise    a = floor, b = tail slope; breakpoints
  ///                [offset, offset + count) of the piecewise pool
  /// An unbatched entry stores this as its record; a batched entry's is
  /// gathered from its lane columns when a per-entry path needs it.
  struct Params {
    double a = 0.0, b = 0.0, c = 0.0, d = 0.0, e = 0.0;
    double max_size = 0.0;    ///< after wrapping
    double wrap_param = 1.0;  ///< Scaled: factor; Granular: elements/item
    std::uint32_t offset = 0;
    std::uint32_t count = 0;
  };

  /// One lane in the block: `count` real entries, their entry indices at
  /// byte offset `idx`, and the byte offsets of up to six parameter
  /// columns a..f (Constant: a, f; LinearDecay: a..c; PowerDecay: a..d;
  /// ExpDecay: a, b, d; Unimodal: a..f; Stepped: a, f). Column f is
  /// max_size in every lane: LinearDecay's f names its column b, and
  /// PowerDecay's and ExpDecay's their column d, which hold the same value
  /// for unwrapped entries. Columns are 64-byte aligned and padded to
  /// detail::simd::kMaxLanes, the widest compiled vector width, so the
  /// runtime-dispatched backend streams whole registers at either width
  /// without reading past the column (pad slots duplicate the last real
  /// element); scalar mode never reads them as vectors.
  struct Lane {
    std::uint32_t count = 0;
    std::uint32_t idx = 0;
    std::uint32_t col[6] = {};
  };

  /// Where everything sits in the block, as byte offsets, plus the list's
  /// scalars. Trivially copyable: a copy of the list is this plus one
  /// memcpy of the block.
  struct Layout {
    std::size_t size = 0;
    std::size_t bytes = 0;  ///< block size
    std::uint32_t entries = 0;  ///< Entry[size]
    std::uint32_t records = 0;  ///< Params[lanes[kOther].count]
    Lane lanes[kLanes];
    /// The stepped lane's slot-major step slabs (at, ratio, width):
    /// `nslots` columns of `stride` doubles each, the s-th step of lane
    /// slot j at [s·stride + j]. Unused slots hold the identity step
    /// (at = +inf, ratio = 1, width = 1); `ratio` is the step's to/level
    /// factor, the division the scalar kernel performs per evaluation.
    std::uint32_t slabs[3] = {};
    std::uint32_t nslots = 0;
    std::uint32_t stride = 0;
    /// Piecewise breakpoints (sizes, speeds), all unbatched functions
    /// concatenated; segment k of a function spans [k, k + 1].
    std::uint32_t px = 0, ps = 0;
    /// Steps of the unbatched Stepped entries (at, ratio, width).
    std::uint32_t steps[3] = {};
    std::uint32_t generic_entries = 0;
    std::uint64_t fingerprint = 0;
  };

  /// The parameter columns each batch lane carries (bit c is column
  /// a + c): Constant a and f (max_size), LinearDecay a..c, PowerDecay
  /// a..d, ExpDecay a, b, d, Unimodal a..f, Stepped a and f.
  static constexpr std::uint8_t kLaneColumns[kOther] = {
      0b100001, 0b000111, 0b001111, 0b001011, 0b111111, 0b100001};

  /// Most steps a SteppedSpeed may have and still ride the vector lane.
  static constexpr std::size_t kMaxVecSteps = 8;

  /// The lane a batch-lane family rides (kOther for Piecewise/Generic).
  static constexpr LaneId lane_of(Family family) noexcept {
    switch (family) {
      case Family::Constant:
        return kConstant;
      case Family::LinearDecay:
        return kLinear;
      case Family::PowerDecay:
        return kPower;
      case Family::ExpDecay:
        return kExp;
      case Family::Unimodal:
        return kUnimodal;
      case Family::Stepped:
        return kStepped;
      default:
        return kOther;
    }
  }

  template <typename T>
  const T* ptr(std::uint32_t offset) const noexcept {
    return reinterpret_cast<const T*>(block_ + offset);
  }
  const Entry& entry(std::size_t i) const noexcept {
    return ptr<Entry>(layout_.entries)[i];
  }
  const double* column(LaneId lane, int col) const noexcept {
    return ptr<double>(layout_.lanes[lane].col[col]);
  }
  const std::uint32_t* lane_idx(LaneId lane) const noexcept {
    return ptr<std::uint32_t>(layout_.lanes[lane].idx);
  }

  /// The parameter record of unbatched entry slot `r`.
  const Params& record(std::uint32_t r) const noexcept {
    return ptr<Params>(layout_.records)[r];
  }
  /// Gathers the parameters of slot j of a batch lane from its columns.
  Params lane_params(LaneId lane, std::uint32_t j) const noexcept;
  double raw_speed(const Entry& e, const Params& p, double x) const;
  double entry_speed(const Entry& e, const Params& p, double x) const;
  double entry_intersect(const Entry& e, const Params& p, double slope) const;

  struct LaneSweep;  // one chunk-parallel batch task (compiled.cpp)
  void lane_chunk_intersect(const LaneSweep& sweep, std::size_t begin,
                            std::size_t end, double slope,
                            std::span<double> out,
                            std::int64_t& scalar_fixups) const;

  /// Allocates storage_ for a block of layout_.bytes and points block_ at
  /// its first 64-byte boundary.
  void allocate_block();

  /// Reads the block's layout in the layout tests (tests/test_compiled.cpp).
  friend struct CompiledLayoutProbe;

  Layout layout_;
  /// The block's storage: a plain allocation kBlockAlign - 1 bytes longer
  /// than the block, so that block_ can start on a 64-byte boundary inside
  /// it. An aligned operator new would save the slack, but glibc carves a
  /// large aligned request out of a bigger chunk, and the leftovers raised
  /// the peak RSS of a cold p = 4096 solve loop by about 0.9 MB (x86-64).
  std::unique_ptr<std::byte[]> storage_;
  std::byte* block_ = nullptr;
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
/// sizes_at into a caller's buffer (out.size() must equal speeds.size()),
/// so a search that solves many lines reuses one buffer.
void sizes_at(const CompiledSpeedList& speeds, double slope,
              EvalCounters* counters, std::span<double> out);
double total_size_at(const CompiledSpeedList& speeds, double slope,
                     EvalCounters* counters);
/// The probe of Figure 18, shared by detect_bracket and a cold search so
/// that both open on the same two lines: every speed at min(n/p, b_i) in
/// one speeds_at sweep into `scratch` (resized to p). Returns line 1 as
/// hi_slope (the largest speed over n/p) and line 2 as lo_slope (the
/// smallest, or hi_slope·1e-12 when that is not positive); `mean_slope`
/// receives the speeds' sum over n, the mean-speed line.
SlopeBracket figure18_probe(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters,
                            std::vector<double>& scratch,
                            double* mean_slope = nullptr);
SlopeBracket detect_bracket(const CompiledSpeedList& speeds, std::int64_t n,
                            EvalCounters* counters,
                            std::vector<double>* small = nullptr,
                            std::vector<double>* large = nullptr);
/// One line of detect_bracket, expansion included: solves the line of
/// `slope` into `sizes` and, while its total lies on the wrong side of n,
/// doubles the slope (`steep`: until the total is <= n) or halves it
/// (until the total is >= n), at most 256 times. Returns the final slope;
/// `total` receives its line's entry-order total.
double solve_bracket_line(const CompiledSpeedList& speeds, std::int64_t n,
                          double slope, bool steep, EvalCounters* counters,
                          std::vector<double>& sizes, double& total);

/// Batched counterpart of `speeds.speed(i, xs[i])` per entry (one
/// CompiledSpeedList::speed_all sweep, counted like p boundary
/// evaluations). The fine-tune epilogue's seeding pass.
std::vector<double> speeds_at(const CompiledSpeedList& speeds,
                              std::span<const double> xs,
                              EvalCounters* counters);
/// speeds_at into a caller's buffer (out.size() must equal speeds.size();
/// out may be xs itself, as in speed_all).
void speeds_at(const CompiledSpeedList& speeds, std::span<const double> xs,
               EvalCounters* counters, std::span<double> out);

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
/// specific SpeedList: while in scope, partition(const SpeedList&) over an
/// *identical* list (same pointers, same order) runs the engine on
/// `compiled` instead of compiling again. That overload is the only code
/// that consults it; library callers pass their compiled list to
/// partition(const CompiledSpeedList&) instead. bench/perf's replay_layers
/// is the guard's last user, and the guard is deleted together with that
/// replay (ROADMAP.md, item 6). Nested guards save and restore the outer
/// hint. `speeds` and `compiled` must outlive the guard.
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
