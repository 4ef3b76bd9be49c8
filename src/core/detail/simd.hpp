// Width-generic SIMD shim under the batched intersect lanes of
// core/compiled.*.
//
// Scalar mode solves one entry at a time (CompiledSpeedList's per-entry
// solve over the kernels in speed_kernels.hpp); at p in the thousands the
// per-line candidate evaluation is the whole solve, so the closed-form
// lanes, the unimodal bisection lane, the stepped Newton lane, the
// fine-tune speed sweep, and the piecewise segment scan get a vector path
// here. The implementation uses GCC/Clang vector extensions
// (double __attribute__((vector_size(8·W)))) rather than raw intrinsics or
// std::experimental::simd: one kernel body (simd_kernels.inc) is compiled
// once per code-generation variant — portable 4-wide (SSE2, or NEON on
// AArch64), AVX2+FMA 4-wide, and AVX-512 8-wide under
// `#pragma GCC target("avx512f,avx512dq")` — and the best supported variant
// is picked at runtime via __builtin_cpu_supports. The scalar fallback is
// the per-entry solve.
//
// Numerics contract (identical on every backend): the constant and
// linear-decay kernels are pure rational arithmetic evaluated in the same
// order as the scalar kernels and are bit-identical to them. The power/exp
// intersect kernels, the unimodal bisection kernel, and the power/exp speed
// kernels replace libm exp/log/pow/tanh with W-wide polynomial
// implementations (vexp/vlog in the .inc) that agree with libm to a few
// ULPs but not bitwise. The stepped kernel solves the same equation as the
// scalar bisection by a safeguarded Newton iteration instead (~4 iterations
// against ~60) and lands within a few ULPs of the bisection's fixpoint. All
// of them are gated by the toleranced-equivalence tests in
// tests/test_simd.cpp, and any lane whose result could be
// *decision*-sensitive to those ULPs — near exp-decay's underflow floor,
// near power-decay's 2^256 delegation threshold, outside the vexp clamp
// range, non-normal inputs, or a unimodal/stepped crossing beyond max_size
// (where the scalar bracket expansion and its saturation tally must run) —
// or that misses its iteration cap is punted back to the scalar kernel by
// writing a NaN sentinel that the caller resolves (see scalar-fixup
// handling in compiled.cpp).
// force_simd_backend("off") (declared in core/compiled.hpp) restores the
// bit-exact per-entry path process-wide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace fpm::core::detail::simd {

/// Maximum vector width in doubles across all compiled variants. Columns
/// handed to the kernels are padded to a multiple of kMaxLanes (pad slots
/// duplicate the last real element so the vector tail computes harmless,
/// in-domain garbage) — padding to the *widest* width keeps every column
/// safe for whichever backend the runtime dispatch picks, so an 8-wide
/// AVX-512 lane never reads past a pool sized for the 4-wide variants.
inline constexpr std::size_t kMaxLanes = 8;

/// Pads `n` up to the next multiple of `width` (the active backend's
/// SimdKernels::width for kernel trip counts, kMaxLanes for storage).
constexpr std::size_t padded_size(std::size_t n,
                                  std::size_t width = kMaxLanes) noexcept {
  return (n + width - 1) / width * width;
}

/// One compiled set of vector entry points. All array arguments are padded
/// to kMaxLanes and 64-byte aligned; `m` is the padded length (a multiple
/// of `width`). Results are written densely to `res` (same indexing as the
/// columns, NOT scattered through an idx column — the caller scatters).
/// Kernels that can punt write a NaN sentinel into `res` for lanes the
/// scalar kernel must recompute; constant/linear never punt.
struct SimdKernels {
  void (*constant_batch)(const double* a, std::size_t m, double slope,
                         double* res);
  void (*linear_batch)(const double* a, const double* b, const double* c,
                       std::size_t m, double slope, double* res);
  void (*power_batch)(const double* a, const double* b, const double* c,
                      const double* d, std::size_t m, double slope,
                      double* res);
  void (*exp_batch)(const double* a, const double* b, std::size_t m,
                    double slope, double* res);
  /// Unimodal intersect by W-wide bisection on [0, max_size]: columns are
  /// a=s_low, b=s_peak, c=x_peak, d=decay_x0, e=decay_exponent, f=max_size.
  /// Punts (NaN) lanes whose crossing lies at or beyond max_size — those
  /// need the scalar bracket expansion and its saturation tally.
  void (*unimodal_batch)(const double* a, const double* b, const double* c,
                         const double* d, const double* e, const double* f,
                         std::size_t m, double slope, double* res);
  /// Stepped intersect by W-wide safeguarded Newton in ln x, started from
  /// the plateau crossings (see the .inc). `a`=s0 and `f`=max_size are
  /// per-entry columns; `at`/`ratio`/`width_col` are slot-major slabs of
  /// `nslots` columns with `stride` doubles between slots (slot s of entry
  /// j lives at [s·stride + j]); unused slots are padded to the identity
  /// step (at=+inf, ratio=1, width=1). Same beyond-max_size punt rule as
  /// the unimodal lane; lanes not converged after 16 iterations punt too.
  void (*stepped_batch)(const double* a, const double* f, const double* at,
                        const double* ratio, const double* width_col,
                        std::size_t m, std::size_t stride, std::size_t nslots,
                        double slope, double* res);
  /// Batched speed evaluation at per-entry sizes (the fine-tune epilogue's
  /// hot loop): res[j] = family_speed(params[j], x[j]). Punts (NaN) on
  /// non-normal parameters and wherever the vexp clamp or the exp-decay
  /// 1e-280 floor decision could bite. res may be x itself: each register
  /// of x is loaded before its results are stored.
  void (*power_speed_batch)(const double* a, const double* b, const double* c,
                            const double* x, std::size_t m, double* res);
  void (*exp_speed_batch)(const double* a, const double* b, const double* x,
                          std::size_t m, double* res);
  /// Counts piecewise segment starts with point-ratio above `slope`, i.e.
  /// |{j < count : ps[j] > slope * px[j]}|. Under the monotone-predicate
  /// invariant of the piecewise slabs this equals the length of the true
  /// prefix, so (count - 1) with a >=1 clamp is the bracketing segment —
  /// the same answer the scalar binary search produces, bit-identically,
  /// because the per-segment arithmetic is unchanged. `px`/`ps` need not
  /// be padded; the kernel handles the tail scalar.
  std::size_t (*piecewise_count_above)(const double* px, const double* ps,
                                       std::size_t count, double slope);
  const char* name;   ///< "portable" | "avx2" | "avx512" | "neon"
  std::size_t width;  ///< vector width in doubles (4 or 8)
};

/// The best variant this CPU supports (avx512 > avx2 > portable/neon),
/// chosen once at first use: what force_simd_backend("auto") selects.
/// Returns nullptr when the build was configured with FPM_SIMD=OFF. Which
/// variant the sweeps actually run — this one, a forced one, or none in
/// scalar mode — is the selector's decision in core/compiled.cpp.
const SimdKernels* resolved_simd_kernels() noexcept;

/// Every variant compiled into this build, best-first. Empty under
/// FPM_SIMD=OFF. Lets tests iterate all compiled-in backends, not just the
/// one the dispatch would pick.
std::span<const SimdKernels* const> compiled_simd_variants() noexcept;

/// Whether this CPU can execute `k` (ISA check via __builtin_cpu_supports;
/// always true for the baseline portable/neon variant).
bool simd_variant_supported(const SimdKernels& k) noexcept;

/// The compiled-in variant with this name, or nullptr.
const SimdKernels* find_simd_variant(std::string_view name) noexcept;

}  // namespace fpm::core::detail::simd
