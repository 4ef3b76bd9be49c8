// Compiles the vector kernels of simd_kernels.inc once per code-generation
// variant (each at its own FPM_SIMD_WIDTH) and resolves the best supported
// one for this process at first use, with a test/CLI-visible registry on
// top.
//
//  - `portable`: built with the translation unit's baseline flags at 4
//    doubles per vector. On a default x86-64 build that means SSE2 codegen
//    from the same source; on an AArch64 build the baseline codegen IS the
//    NEON instruction set, so the table is named "neon"; on an explicit
//    -march=x86-64-v3 build the "portable" variant already carries AVX2 and
//    is named accordingly.
//  - `avx2`: on x86-64 GCC builds *without* AVX2 in the baseline, the same
//    source is recompiled at width 4 under `#pragma GCC target("avx2,fma")`
//    and picked at runtime via __builtin_cpu_supports.
//  - `avx512`: on x86-64 GCC builds the source is compiled a third time at
//    width 8 under `#pragma GCC target("avx512f,avx512dq")` (avx512dq
//    supplies the packed int64<->double conversions vexp/vlog lean on); when
//    the baseline already carries both features (-march=x86-64-v4) the
//    pragma is skipped and the 8-wide variant compiles under the baseline.
//
// Auto dispatch prefers avx512 > avx2 > portable among the variants the
// CPU supports; core::force_simd_backend (and the FPM_SIMD_BACKEND
// environment override it shares a selector with, in core/compiled.cpp)
// pins one explicitly or selects the scalar mode.
//
// FPM_SIMD=OFF defines FPM_SIMD_DISABLED and strips every variant: the
// resolver returns nullptr, the registry is empty, and core/compiled.*
// solves every entry on its own (the per-entry scalar path).

#include "core/detail/simd.hpp"

#include <cstring>

#ifndef FPM_SIMD_DISABLED

#include <cmath>
#include <cstdint>

namespace fpm::core::detail::simd {

// The wide vector types are passed between `static` helpers inside this
// translation unit only, so GCC's "vector return without AVX/AVX-512
// enabled changes the ABI" warning (-Wpsabi) does not apply: nothing with a
// vector signature is visible across TU boundaries (the kKernels entry
// points take and return scalars/pointers).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace portable {
#define FPM_SIMD_WIDTH 4
#if defined(__aarch64__)
#define FPM_SIMD_VARIANT_NAME "neon"  // baseline AArch64 codegen is NEON
#elif defined(__AVX2__)
#define FPM_SIMD_VARIANT_NAME "avx2"  // baseline flags already target AVX2
#else
#define FPM_SIMD_VARIANT_NAME "portable"
#endif
#include "core/detail/simd_kernels.inc"
#undef FPM_SIMD_VARIANT_NAME
#undef FPM_SIMD_WIDTH
}  // namespace portable

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__AVX2__)
#define FPM_SIMD_HAVE_AVX2_VARIANT 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
namespace avx2 {
#define FPM_SIMD_WIDTH 4
#define FPM_SIMD_VARIANT_NAME "avx2"
#include "core/detail/simd_kernels.inc"
#undef FPM_SIMD_VARIANT_NAME
#undef FPM_SIMD_WIDTH
}  // namespace avx2
#pragma GCC pop_options
#endif

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define FPM_SIMD_HAVE_AVX512_VARIANT 1
#if !(defined(__AVX512F__) && defined(__AVX512DQ__))
#define FPM_SIMD_AVX512_PUSHED 1
#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq")
#endif
namespace avx512 {
#define FPM_SIMD_WIDTH 8
#define FPM_SIMD_VARIANT_NAME "avx512"
#include "core/detail/simd_kernels.inc"
#undef FPM_SIMD_VARIANT_NAME
#undef FPM_SIMD_WIDTH
}  // namespace avx512
#ifdef FPM_SIMD_AVX512_PUSHED
#pragma GCC pop_options
#undef FPM_SIMD_AVX512_PUSHED
#endif
#endif

#pragma GCC diagnostic pop

namespace {

// Best-first: the runtime dispatch walks this in order and takes the first
// CPU-supported variant.
const SimdKernels* const kVariants[] = {
#ifdef FPM_SIMD_HAVE_AVX512_VARIANT
    &avx512::kKernels,
#endif
#ifdef FPM_SIMD_HAVE_AVX2_VARIANT
    &avx2::kKernels,
#endif
    &portable::kKernels,
};

}  // namespace

std::span<const SimdKernels* const> compiled_simd_variants() noexcept {
  return kVariants;
}

bool simd_variant_supported(const SimdKernels& k) noexcept {
#if defined(__GNUC__) && defined(__x86_64__)
  if (std::strcmp(k.name, "avx512") == 0)
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq");
  if (std::strcmp(k.name, "avx2") == 0)
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  // portable/neon run on the baseline ISA the whole binary already
  // requires; off-x86 builds carry no runtime-dispatched variants.
  (void)k;
  return true;
}

const SimdKernels* find_simd_variant(std::string_view name) noexcept {
  for (const SimdKernels* k : kVariants)
    if (name == k->name) return k;
  return nullptr;
}

const SimdKernels* resolved_simd_kernels() noexcept {
  static const SimdKernels* const chosen = [] {
    for (const SimdKernels* k : kVariants)
      if (simd_variant_supported(*k)) return k;
    return &portable::kKernels;  // unreachable: portable is always supported
  }();
  return chosen;
}

}  // namespace fpm::core::detail::simd

#else  // FPM_SIMD_DISABLED

namespace fpm::core::detail::simd {

const SimdKernels* resolved_simd_kernels() noexcept { return nullptr; }

std::span<const SimdKernels* const> compiled_simd_variants() noexcept {
  return {};
}

bool simd_variant_supported(const SimdKernels&) noexcept { return false; }

const SimdKernels* find_simd_variant(std::string_view) noexcept {
  return nullptr;
}

}  // namespace fpm::core::detail::simd

#endif  // FPM_SIMD_DISABLED
