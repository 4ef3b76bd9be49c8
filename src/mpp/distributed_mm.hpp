// Truly distributed striped matrix multiplication C = A·Bᵀ on the mpp
// runtime: the heterogeneous 1-D ring algorithm the paper's application
// implements on real machines (its Figure 16). Each rank owns a horizontal
// slice of A, B and C sized by the partitioner; B slices circulate around
// the ring so every rank multiplies its A slice against every B slice
// while only ever holding one foreign slice at a time.
//
// Data flow (per rank r, p ranks, rows_i rows for rank i):
//   1. rank 0 scatters the A and B slices;
//   2. for p steps: multiply own A slice against the currently held B
//      slice (producing the C columns that correspond to that slice's
//      rows), then pass the held slice to the next rank on the ring;
//   3. rank 0 gathers the C slices.
//
// The result is bit-identical to the serial A·Bᵀ: each C entry is the same
// dot product computed in the same order.
#pragma once

#include <cstdint>
#include <vector>

#include "mpp/runtime.hpp"
#include "util/matrix.hpp"

namespace fpm::mpp {

struct DistributedMmResult {
  util::MatrixD c;                       ///< full product, valid on rank 0
  std::vector<double> compute_seconds;   ///< per-rank kernel time
  /// Per-rank kernel flops, repeats included: the deterministic work behind
  /// `compute_seconds`, which a loaded host cannot perturb.
  std::vector<std::int64_t> compute_flops;
};

/// Runs the ring algorithm over `rows[i]` rows per rank (must sum to
/// a.rows(); a and b must be square and equally sized, as in the paper's
/// C = A·Bᵀ with square matrices). `work_multiplier[i] >= 1` repeats rank
/// i's kernel to emulate a slower machine (the timing study knob); pass an
/// empty span for uniform ranks. Returns the assembled product (rank 0's
/// view) and each rank's measured kernel seconds and flops.
DistributedMmResult distributed_mm_abt(
    const util::MatrixD& a, const util::MatrixD& b,
    std::span<const std::int64_t> rows,
    std::span<const int> work_multiplier = {});

}  // namespace fpm::mpp
