// Shared fixtures for the fpmlib test suite: canonical heterogeneous curve
// families covering every shape class of the paper (Figure 5), the virtual
// reference the compiled search is compared against, and a scoped SIMD
// backend selection.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/fpm.hpp"

namespace fpm::test {

using CurveSet = std::vector<std::shared_ptr<const core::SpeedFunction>>;

/// A named heterogeneous processor ensemble.
struct Ensemble {
  std::string name;
  CurveSet owned;

  core::SpeedList list() const {
    core::SpeedList l;
    l.reserve(owned.size());
    for (const auto& f : owned) l.push_back(f.get());
    return l;
  }
};

/// Forwards every call to the wrapped model. CompiledSpeedList::compile
/// does not know this type, so it classifies each entry as Generic, and a
/// search over a wrapped list runs on the wrapped models' own virtual
/// speed() and intersect() — the reference the compiled families must
/// match bit for bit in scalar mode. When `intersects` is given, every
/// intersect() call increments it (not thread-safe: keep lists below
/// parallel_intersect_threshold()).
class VirtualOnly final : public core::SpeedFunction {
 public:
  explicit VirtualOnly(const core::SpeedFunction& base,
                       std::int64_t* intersects = nullptr)
      : base_(&base), intersects_(intersects) {}
  double speed(double x) const override { return base_->speed(x); }
  double max_size() const override { return base_->max_size(); }
  double intersect(double slope) const override {
    if (intersects_ != nullptr) ++*intersects_;
    return base_->intersect(slope);
  }

 private:
  const core::SpeedFunction* base_;
  std::int64_t* intersects_;
};

/// A list's models, each wrapped in VirtualOnly (counting into
/// `intersects` when given). `list` must outlive the result's list().
struct VirtualOnlyList {
  explicit VirtualOnlyList(const core::SpeedList& list,
                           std::int64_t* intersects = nullptr) {
    wrapped.reserve(list.size());
    for (const core::SpeedFunction* f : list)
      wrapped.emplace_back(*f, intersects);
  }
  core::SpeedList list() const {
    core::SpeedList l;
    for (const VirtualOnly& f : wrapped) l.push_back(&f);
    return l;
  }
  std::vector<VirtualOnly> wrapped;
};

/// Selects a SIMD backend (force_simd_backend) for one scope and restores
/// the previous selection on exit. The default, "off", is the bit-exact
/// scalar mode the equivalence tests run in.
class BackendScope {
 public:
  explicit BackendScope(std::string_view backend = "off")
      : previous_(core::to_string(core::active_simd_backend())) {
    core::force_simd_backend(backend);
  }
  ~BackendScope() { core::force_simd_backend(previous_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  std::string previous_;
};

/// "off" (the scalar sweeps) followed by every vector backend this build
/// carries and this CPU runs — the names force_simd_backend accepts.
inline std::vector<std::string> runnable_backends() {
  std::vector<std::string> out{"off"};
  const BackendScope restore("auto");
  for (const char* name : {"portable", "avx2", "avx512", "neon"}) {
    try {
      core::force_simd_backend(name);
      out.emplace_back(name);
    } catch (const std::invalid_argument&) {
    }
  }
  return out;
}

/// p constant speeds 100, 150, 200, ... (the degenerate single-number case).
inline Ensemble constant_ensemble(std::size_t p, double max_size = 1e9) {
  Ensemble e{"constant", {}};
  for (std::size_t i = 0; i < p; ++i)
    e.owned.push_back(std::make_shared<core::ConstantSpeed>(
        100.0 + 50.0 * static_cast<double>(i), max_size));
  return e;
}

/// Strictly decreasing linear curves with staggered ranges (Figure 5 s1).
inline Ensemble linear_ensemble(std::size_t p, double base_max = 4e8) {
  Ensemble e{"linear-decay", {}};
  for (std::size_t i = 0; i < p; ++i)
    e.owned.push_back(std::make_shared<core::LinearDecaySpeed>(
        120.0 + 40.0 * static_cast<double>(i),
        base_max * (1.0 + 0.35 * static_cast<double>(i))));
  return e;
}

/// Smooth power decays of varying sharpness (the "MatrixMult" shape).
inline Ensemble power_ensemble(std::size_t p, double max_size = 1e9) {
  Ensemble e{"power-decay", {}};
  for (std::size_t i = 0; i < p; ++i)
    e.owned.push_back(std::make_shared<core::PowerDecaySpeed>(
        90.0 + 60.0 * static_cast<double>(i),
        2e7 * (1.0 + static_cast<double>(i)),
        0.8 + 0.3 * static_cast<double>(i % 3), max_size));
  return e;
}

/// Rising-then-falling curves (Figure 5 s2).
inline Ensemble unimodal_ensemble(std::size_t p, double max_size = 6e8) {
  Ensemble e{"unimodal", {}};
  for (std::size_t i = 0; i < p; ++i) {
    const double d = static_cast<double>(i);
    e.owned.push_back(std::make_shared<core::UnimodalSpeed>(
        40.0 + 10.0 * d, 150.0 + 45.0 * d, 1e6 * (1.0 + d),
        5e7 * (1.0 + 0.5 * d), 3.0, max_size));
  }
  return e;
}

/// Plateaus with cache and paging cliffs at staggered positions.
inline Ensemble stepped_ensemble(std::size_t p, double max_size = 8e8) {
  Ensemble e{"stepped", {}};
  for (std::size_t i = 0; i < p; ++i) {
    const double d = static_cast<double>(i);
    std::vector<core::SteppedSpeed::Step> steps;
    steps.push_back({3e5 * (1.0 + d), (220.0 + 40.0 * d) * 0.8, 1e5});
    steps.push_back({8e7 * (1.0 + 0.6 * d), (220.0 + 40.0 * d) * 0.05, 6e6});
    e.owned.push_back(std::make_shared<core::SteppedSpeed>(
        220.0 + 40.0 * d, std::move(steps), max_size));
  }
  return e;
}

/// The pathological family for the basic algorithm: exponentially decaying
/// speeds with widely spread decay constants, so the optimal slope decays
/// exponentially in n and the Figure-18 bracket opens exponentially wide.
inline Ensemble exponential_ensemble(std::size_t p, double max_size = 2e6) {
  Ensemble e{"exp-decay", {}};
  double lambda = 5e3;
  for (std::size_t i = 0; i < p; ++i) {
    e.owned.push_back(std::make_shared<core::ExpDecaySpeed>(
        150.0 + 30.0 * static_cast<double>(i), lambda, max_size));
    lambda *= 3.0;
  }
  return e;
}

/// A mixed ensemble with one curve of every shape class.
inline Ensemble mixed_ensemble() {
  Ensemble e{"mixed", {}};
  e.owned.push_back(std::make_shared<core::ConstantSpeed>(140.0, 1e9));
  e.owned.push_back(std::make_shared<core::LinearDecaySpeed>(200.0, 5e8));
  e.owned.push_back(std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9));
  e.owned.push_back(std::make_shared<core::UnimodalSpeed>(60.0, 260.0, 2e6,
                                                          9e7, 2.5, 7e8));
  std::vector<core::SteppedSpeed::Step> steps;
  steps.push_back({5e5, 180.0, 2e5});
  steps.push_back({1.2e8, 12.0, 8e6});
  e.owned.push_back(
      std::make_shared<core::SteppedSpeed>(230.0, std::move(steps), 9e8));
  return e;
}

/// All families at the given p, for parameterized sweeps.
inline std::vector<Ensemble> all_ensembles(std::size_t p) {
  return {constant_ensemble(p), linear_ensemble(p),   power_ensemble(p),
          unimodal_ensemble(p), stepped_ensemble(p),  exponential_ensemble(p)};
}

}  // namespace fpm::test
