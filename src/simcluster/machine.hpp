// Simulated heterogeneous computers.
//
// The paper evaluates on real Solaris/Linux/Windows workstations (Tables 1
// and 2). This module substitutes a deterministic simulator: each machine's
// ground-truth speed function is synthesized from its hardware spec (CPU
// clock, cache size, free main memory, OS paging behaviour) and an
// application profile (how efficiently the code uses the memory hierarchy).
// The synthesized curves reproduce the shape classes the paper observes
// (Figures 1, 5, 19): near-flat plateaus with sharp paging cliffs for
// cache-efficient code, smooth strict decay for cache-hostile code — while
// always satisfying the single-intersection shape requirement the
// partitioning algorithms rely on.
//
// Problem-size convention: x is the total number of stored-and-processed
// elements (paper §2: 3·n² for a square matrix multiplication, n² for LU),
// at 8 bytes per element.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/speed_function.hpp"

namespace fpm::sim {

/// Hardware/OS description, mirroring the columns of the paper's Tables 1-2.
struct MachineSpec {
  std::string name;
  std::string os;    ///< "Linux", "SunOS" or "Windows" — selects the paging model
  std::string arch;
  double cpu_mhz = 0.0;
  std::int64_t main_memory_kb = 0;
  std::int64_t free_memory_kb = 0;  ///< memory actually available to the task
  std::int64_t cache_kb = 0;
};

/// How an application's memory reference pattern interacts with the
/// hierarchy (paper Figure 1's three example codes).
enum class MemoryPattern {
  Efficient,    ///< blocked/ATLAS-style: flat plateaus, sharp cliffs
  Moderate,     ///< mixed locality: gentle decay plus a visible paging knee
  Inefficient,  ///< naive triple loop: smooth strictly decreasing curve
};

/// Application-specific constants of the performance model.
struct AppProfile {
  std::string name;
  MemoryPattern pattern = MemoryPattern::Moderate;
  /// Resident bytes per problem-size element (8 for dense double data).
  double bytes_per_element = 8.0;
  /// Fraction of theoretical peak (clock x issue width) the kernel reaches
  /// in-cache.
  double efficiency = 0.5;
  /// Useful flops per problem-size element within one parallel run; used to
  /// convert speeds (MFlops) into wall-clock seconds. May depend on the
  /// global problem; callers pass the factor to the executor.
  double flops_per_element = 1.0;
};

/// Ground-truth speed curve of one (machine, application) pair together
/// with the derived feature points the experiments report.
class MachineSpeed final : public core::SpeedFunction {
 public:
  /// `paging_onset_elements` overrides the onset derived from free memory
  /// (used to pin the Table-2 paging columns exactly).
  MachineSpeed(const MachineSpec& spec, const AppProfile& app,
               std::optional<double> paging_onset_elements = std::nullopt);

  double speed(double x) const override;
  double max_size() const override { return max_size_; }

  /// The problem size where paging starts degrading the speed (the paper's
  /// point P in Figure 1 and the Paging columns of Table 2).
  double paging_onset() const noexcept { return paging_onset_; }
  /// Problem size where the top-level cache overflows.
  double cache_capacity() const noexcept { return cache_elems_; }
  /// In-cache plateau speed (MFlops).
  double peak_speed() const noexcept { return peak_; }

  /// The fluctuation band's anchor (workload.hpp): the execution time of
  /// the "maximum solvable problem size", the smallest size where the speed
  /// has fallen to 30% of its small-size value, i.e. the paging cliff. The
  /// band width reaches its floor there. Fixed at construction.
  double saturation_time() const noexcept { return saturation_time_; }

 private:
  double peak_ = 0.0;          ///< in-cache speed, MFlops
  double cache_elems_ = 0.0;   ///< top-level cache capacity in elements
  double paging_onset_ = 0.0;  ///< elements where paging begins
  double max_size_ = 0.0;      ///< modelled range end (deep into swap)
  double cache_drop_ = 0.7;    ///< post-cache plateau as a fraction of peak
  double decay_k_ = 0.0;       ///< smooth-decay exponent (pattern dependent)
  double paging_width_ = 1.0;  ///< paging transition width (OS dependent)
  double paging_disk_frac_ = 0.04;  ///< post-cliff fraction of the plateau
  double ramp_end_ = 0.0;      ///< end of the small-size warm-up ramp
  double ramp_low_ = 0.6;      ///< speed fraction at x -> 0
  MemoryPattern pattern_;
  double saturation_time_ = 0.0;  ///< band anchor (set last)
};

/// Convenience factory returning a shared ground-truth function.
std::shared_ptr<const MachineSpeed> make_ground_truth(
    const MachineSpec& spec, const AppProfile& app,
    std::optional<double> paging_onset_elements = std::nullopt);

}  // namespace fpm::sim
