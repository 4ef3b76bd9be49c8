// Equivalence tests for the compiled speed-model layer (core/compiled.*):
// bit-identical speed() / intersect() per family, closed-form intersections
// against the generic bisection, bit-identical distributions and stats for
// every registry algorithm against the same models wrapped in
// test::VirtualOnly (every entry Generic, so the search runs on the
// virtual calls), the exact-type classification table, and content-hash
// fingerprint semantics, and the one-block layout (copies and moves that
// answer bit-identically once their source is gone, 64-byte-aligned lane
// columns). The bit-identity checks against the virtual models run in
// scalar mode: the SIMD lanes are only ULP-equivalent (tests/test_simd.cpp
// owns that gate).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/simd.hpp"
#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "helpers.hpp"

namespace fpm::core {

/// Reads a compiled list's block: every batch-lane parameter column and
/// step slab over its padded storage, in lane order.
struct CompiledLayoutProbe {
  static std::vector<std::span<const double>> columns(
      const CompiledSpeedList& c) {
    using List = CompiledSpeedList;
    std::vector<std::span<const double>> out;
    for (int l = 0; l < List::kOther; ++l) {
      const List::Lane& lane = c.layout_.lanes[l];
      if (lane.count == 0) continue;
      const std::size_t padded = detail::simd::padded_size(lane.count);
      for (int col = 0; col < 6; ++col)
        if ((List::kLaneColumns[l] >> col) & 1)
          out.emplace_back(c.ptr<double>(lane.col[col]), padded);
    }
    if (c.layout_.lanes[List::kStepped].count != 0)
      for (const std::uint32_t slab : c.layout_.slabs)
        out.emplace_back(c.ptr<double>(slab),
                         std::size_t{c.layout_.nslots} * c.layout_.stride);
    return out;
  }
};

}  // namespace fpm::core

namespace fpm {
namespace {

using core::CompiledLayoutProbe;
using core::CompiledSpeedList;

using test::BackendScope;
using test::VirtualOnlyList;

/// Every ensemble the suite knows, plus mixed and a piecewise curve set.
std::vector<test::Ensemble> equivalence_ensembles() {
  auto out = test::all_ensembles(4);
  out.push_back(test::mixed_ensemble());
  test::Ensemble pw{"piecewise", {}};
  for (int i = 0; i < 3; ++i) {
    const double d = static_cast<double>(i);
    std::vector<core::SpeedPoint> pts{{1e3, 180.0 + 20.0 * d},
                                      {5e5, 160.0 + 20.0 * d},
                                      {2e7, 90.0 + 10.0 * d},
                                      {4e8, 12.0 + d}};
    pw.owned.push_back(
        std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts)));
  }
  out.push_back(std::move(pw));
  return out;
}

TEST(Compiled, SpeedAndIntersectBitIdenticalPerFamily) {
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    ASSERT_EQ(compiled.size(), list.size());
    EXPECT_TRUE(compiled.fully_compiled()) << e.name;
    for (std::size_t i = 0; i < list.size(); ++i) {
      for (double x = 1.0; x <= 4e9; x *= 3.7)
        EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x))
            << e.name << " curve " << i << " at x=" << x;
      for (double x = 10.0; x <= 1e8; x *= 10.0) {
        const double slope = list[i]->speed(x) / x;
        EXPECT_EQ(compiled.intersect(i, slope), list[i]->intersect(slope))
            << e.name << " curve " << i << " slope through x=" << x;
      }
    }
  }
}

TEST(Compiled, WrappersCompileOneLevelDeep) {
  auto power = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  auto exp = std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, 2e6);
  const core::ScaledSpeed scaled(power, 0.75);
  const core::GranularSpeed granular(exp, 48.0);
  const core::GranularSpeedView view(*power, 9.0);

  const core::SpeedList list{&scaled, &granular, &view};
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_TRUE(compiled.fully_compiled());
  EXPECT_EQ(compiled.wrap(0), CompiledSpeedList::Wrap::Scaled);
  EXPECT_EQ(compiled.family(0), CompiledSpeedList::Family::PowerDecay);
  EXPECT_EQ(compiled.wrap(1), CompiledSpeedList::Wrap::Granular);
  EXPECT_EQ(compiled.family(1), CompiledSpeedList::Family::ExpDecay);
  EXPECT_EQ(compiled.wrap(2), CompiledSpeedList::Wrap::Granular);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(compiled.max_size(i), list[i]->max_size());
    for (double x = 1.0; x <= 1e8; x *= 2.9)
      EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x)) << "curve " << i;
    for (double x = 100.0; x <= 1e6; x *= 10.0) {
      const double slope = list[i]->speed(x) / x;
      EXPECT_EQ(compiled.intersect(i, slope), list[i]->intersect(slope))
          << "curve " << i;
    }
  }
}

/// An unknown SpeedFunction subclass must fall back to a Generic entry that
/// forwards to the virtual object.
class OddSpeed final : public core::SpeedFunction {
 public:
  double speed(double x) const override { return 130.0 / (1.0 + x / 1e6); }
  double max_size() const override { return 1e8; }
};

TEST(Compiled, UnknownSubclassFallsBackToGeneric) {
  const OddSpeed odd;
  auto constant = std::make_shared<core::ConstantSpeed>(100.0, 1e9);
  const core::SpeedList list{&odd, constant.get()};
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_FALSE(compiled.fully_compiled());
  EXPECT_EQ(compiled.generic_entries(), 1u);
  EXPECT_EQ(compiled.family(0), CompiledSpeedList::Family::Generic);
  EXPECT_EQ(compiled.family(1), CompiledSpeedList::Family::Constant);
  for (double x = 1.0; x <= 1e8; x *= 5.1)
    EXPECT_EQ(compiled.speed(0, x), odd.speed(x));
  for (double slope : {1e-4, 1e-2, 1.0, 50.0})
    EXPECT_EQ(compiled.intersect(0, slope), odd.intersect(slope));
}

/// Satellite regression: the closed-form intersections of the power- and
/// exponential-decay families must agree with the generic bisection (the
/// SpeedFunction base implementation, reached via a qualified call) to 1e-9
/// relative across slopes spanning ~300 orders of magnitude.
void expect_close(double a, double b, const char* what, double slope) {
  const double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_LE(std::abs(a - b), 1e-9 * scale)
      << what << " at slope " << slope << ": closed " << a << " generic " << b;
}

TEST(Compiled, PowerDecayClosedFormMatchesBisection) {
  for (const double x0 : {3e5, 2e7}) {
    for (const double k : {0.5, 1.0, 2.0, 3.5, 8.0, 20.0}) {
      const core::PowerDecaySpeed f(150.0, x0, k, 1e9);
      for (int e = -300; e <= 6; e += 3)
        expect_close(f.intersect(std::pow(10.0, e)),
                     f.SpeedFunction::intersect(std::pow(10.0, e)),
                     "power-decay", std::pow(10.0, e));
    }
  }
}

TEST(Compiled, ExpDecayClosedFormMatchesBisection) {
  for (const double lambda : {5e3, 4.5e4, 4e5, 2e6, 1.2e7}) {
    const core::ExpDecaySpeed f(150.0, lambda, 2e6);
    for (int e = -300; e <= 6; e += 3)
      expect_close(f.intersect(std::pow(10.0, e)),
                   f.SpeedFunction::intersect(std::pow(10.0, e)), "exp-decay",
                   std::pow(10.0, e));
  }
}

TEST(Compiled, AllAlgorithmsBitIdenticalAcrossToggle) {
  // The toggle is between the known-family compiled entries and the same
  // models wrapped in VirtualOnly (every entry Generic, so each line is
  // solved through the models' own virtual calls).
  BackendScope scalar;
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const VirtualOnlyList wrapped(list);
    ASSERT_EQ(CompiledSpeedList::compile(wrapped.list()).generic_entries(),
              list.size());
    for (const std::string& alg : core::partitioner_registry().ids()) {
      core::PartitionPolicy policy;
      policy.algorithm = alg;
      for (const std::int64_t n : {1000LL, 1000003LL, 1000000LL}) {
        const core::PartitionResult known = core::partition(list, n, policy);
        const core::PartitionResult virt =
            core::partition(wrapped.list(), n, policy);
        const std::string where =
            e.name + "/" + std::to_string(list.size()) + " " + alg +
            " n=" + std::to_string(n);
        EXPECT_EQ(known.distribution.counts, virt.distribution.counts)
            << where;
        EXPECT_EQ(known.stats.iterations, virt.stats.iterations) << where;
        EXPECT_EQ(known.stats.intersections, virt.stats.intersections)
            << where;
        EXPECT_EQ(known.stats.final_slope, virt.stats.final_slope) << where;
        EXPECT_EQ(known.stats.speed_evals, virt.stats.speed_evals) << where;
        EXPECT_EQ(known.stats.intersect_solves, virt.stats.intersect_solves)
            << where;
        EXPECT_EQ(known.stats.switched_to_modified,
                  virt.stats.switched_to_modified)
            << where;
      }
    }
  }
}

TEST(Compiled, BracketAndSizesMatchVirtualHelpers) {
  BackendScope scalar;
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    const VirtualOnlyList wrapped(list);
    for (const std::int64_t n : {100LL, 5000000LL}) {
      core::EvalCounters counters;
      const core::SlopeBracket a = detect_bracket(compiled, n, &counters);
      const core::SlopeBracket b = detect_bracket(wrapped.list(), n);
      EXPECT_EQ(a.lo_slope, b.lo_slope) << e.name << " n=" << n;
      EXPECT_EQ(a.hi_slope, b.hi_slope) << e.name << " n=" << n;
      EXPECT_GT(counters.speed_evals, 0) << e.name;
      EXPECT_GT(counters.intersect_solves, 0) << e.name;
      EXPECT_EQ(sizes_at(compiled, a.lo_slope, nullptr),
                sizes_at(wrapped.list(), b.lo_slope))
          << e.name << " n=" << n;
      EXPECT_EQ(total_size_at(compiled, a.hi_slope, nullptr),
                total_size_at(wrapped.list(), b.hi_slope))
          << e.name << " n=" << n;
    }
  }
}

TEST(Compiled, BracketReturnsTheLinesItSolved) {
  BackendScope scalar;
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    const VirtualOnlyList wrapped(list);
    for (const std::int64_t n : {100LL, 5000000LL}) {
      std::vector<double> small_c, large_c, small_v, large_v;
      const core::SlopeBracket a =
          detect_bracket(compiled, n, nullptr, &small_c, &large_c);
      const core::SlopeBracket b =
          detect_bracket(wrapped.list(), n, &small_v, &large_v);
      EXPECT_EQ(small_c, sizes_at(compiled, a.hi_slope, nullptr)) << e.name;
      EXPECT_EQ(large_c, sizes_at(compiled, a.lo_slope, nullptr)) << e.name;
      EXPECT_EQ(small_v, sizes_at(wrapped.list(), b.hi_slope)) << e.name;
      EXPECT_EQ(large_v, sizes_at(wrapped.list(), b.lo_slope)) << e.name;
    }
  }
}

TEST(Compiled, ColdSearchSolvesEachLineOnce) {
  // A cold search solves the bracket's expansion tests, then one line per
  // non-degenerate step — never the two bracket lines a second time — on
  // the known families and on the virtual reference alike. The secant
  // start adds whole-line probes before the first step, at most its
  // 12-probe budget.
  BackendScope scalar;
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const VirtualOnlyList wrapped(e.list());
    for (const bool virtual_only : {false, true}) {
      const core::SpeedList list = virtual_only ? wrapped.list() : e.list();
      const auto p = static_cast<std::int64_t>(list.size());
      for (const std::int64_t n : {1000LL, 1000000LL}) {
        core::EvalCounters bracket;
        (void)detect_bracket(CompiledSpeedList::compile(list), n, &bracket);
        for (const char* alg : {core::kAlgorithmBasic, core::kAlgorithmModified,
                                core::kAlgorithmCombined,
                                core::kAlgorithmInterpolation}) {
          for (const core::Bracket start :
               {core::Bracket::Figure18, core::Bracket::Secant}) {
            std::int64_t line_steps = 0;
            core::PartitionPolicy policy;
            policy.algorithm = alg;
            policy.observer = [&](const core::SearchStep& step) {
              if (step.kind != core::SearchStepKind::Bracket &&
                  step.kind != core::SearchStepKind::Degenerate)
                ++line_steps;
            };
            const core::PartitionResult r =
                core::detail::partition_from(start, list, n, policy);
            const std::int64_t probes = r.stats.search_intersect_solves -
                                        bracket.intersect_solves -
                                        line_steps * p;
            const std::int64_t max_probes =
                start == core::Bracket::Secant ? 12 * p : 0;
            EXPECT_EQ(probes % p, 0);
            EXPECT_GE(probes, 0);
            EXPECT_LE(probes, max_probes)
                << e.name << " " << alg << " n=" << n
                << " virtual_only=" << virtual_only;
          }
        }
      }
    }
  }
}

TEST(Compiled, FingerprintIsContentHashForKnownFamilies) {
  const test::Ensemble a = test::power_ensemble(5);
  const test::Ensemble b = test::power_ensemble(5);  // distinct objects
  EXPECT_EQ(CompiledSpeedList::compile(a.list()).fingerprint(),
            CompiledSpeedList::compile(b.list()).fingerprint());

  const test::Ensemble c = test::power_ensemble(4);  // different p
  EXPECT_NE(CompiledSpeedList::compile(a.list()).fingerprint(),
            CompiledSpeedList::compile(c.list()).fingerprint());

  const core::PowerDecaySpeed p1(90.0, 2e7, 0.8, 1e9);
  const core::PowerDecaySpeed p2(90.0, 2e7, 0.9, 1e9);  // one param differs
  EXPECT_NE(CompiledSpeedList::compile({&p1}).fingerprint(),
            CompiledSpeedList::compile({&p2}).fingerprint());

  // Families with identical raw parameters must still hash apart.
  const core::ConstantSpeed k1(100.0, 1e9);
  const core::ExpDecaySpeed k2(100.0, 1e9, 1e9);
  EXPECT_NE(CompiledSpeedList::compile({&k1}).fingerprint(),
            CompiledSpeedList::compile({&k2}).fingerprint());
}

TEST(Compiled, FingerprintUsesIdentityForGenericEntries) {
  const OddSpeed odd1, odd2;
  EXPECT_EQ(CompiledSpeedList::compile({&odd1}).fingerprint(),
            CompiledSpeedList::compile({&odd1}).fingerprint());
  EXPECT_NE(CompiledSpeedList::compile({&odd1}).fingerprint(),
            CompiledSpeedList::compile({&odd2}).fingerprint());
}

TEST(Compiled, FingerprintOfMatchesCompileAcrossAllEnsembles) {
  // fingerprint_of is the cache-key fast path: it must reproduce the exact
  // hash compile() stores, for every family, wrapper, and the piecewise
  // breakpoint pools.
  for (const test::Ensemble& e : equivalence_ensembles()) {
    const core::SpeedList list = e.list();
    EXPECT_EQ(CompiledSpeedList::fingerprint_of(list),
              CompiledSpeedList::compile(list).fingerprint())
        << e.name;
  }
  // Wrappers and generic (unknown-subclass) entries.
  const OddSpeed odd;
  auto base = std::make_shared<core::ConstantSpeed>(100.0, 1e9);
  const core::ScaledSpeed scaled(base, 0.5);
  const core::GranularSpeed granular(base, 8.0);
  const core::SpeedList wrapped{&odd, &scaled, &granular, base.get()};
  EXPECT_EQ(CompiledSpeedList::fingerprint_of(wrapped),
            CompiledSpeedList::compile(wrapped).fingerprint());
  EXPECT_THROW(CompiledSpeedList::fingerprint_of({nullptr}),
               std::invalid_argument);
}

TEST(Compiled, PrecompiledGuardReusesTheInstalledModel) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  const core::PartitionResult plain = core::partition(list, 123456);
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  {
    core::PrecompiledGuard guard(list, compiled);
    EXPECT_EQ(core::precompiled_match(list), &compiled);
    // An element-wise equal copy of the list matches too (the server's
    // BatchRequest copies the pointer vector).
    const core::SpeedList copy = list;
    EXPECT_EQ(core::precompiled_match(copy), &compiled);
    // A different list (e.g. a hierarchy sub-list) must not match.
    core::SpeedList sub(list.begin(), list.begin() + 2);
    EXPECT_EQ(core::precompiled_match(sub), nullptr);
    // Partitioning under the guard is bit-identical to compiling inline.
    const core::PartitionResult guarded = core::partition(list, 123456);
    EXPECT_EQ(guarded.distribution.counts, plain.distribution.counts);
    EXPECT_EQ(guarded.stats.speed_evals, plain.stats.speed_evals);
    EXPECT_EQ(guarded.stats.intersect_solves, plain.stats.intersect_solves);
  }
  EXPECT_EQ(core::precompiled_match(list), nullptr);  // guard restored
}

/// One instance of every compiled family, with the Family it must compile
/// to.
struct FamilyCase {
  const char* name;
  std::shared_ptr<const core::SpeedFunction> f;
  CompiledSpeedList::Family family;
};

std::vector<FamilyCase> family_cases() {
  using Family = CompiledSpeedList::Family;
  std::vector<core::SteppedSpeed::Step> steps{{5e5, 180.0, 2e5},
                                              {1.2e8, 12.0, 8e6}};
  std::vector<core::SpeedPoint> pts{
      {1e3, 180.0}, {5e5, 160.0}, {2e7, 90.0}, {4e8, 12.0}};
  return {
      {"constant", std::make_shared<core::ConstantSpeed>(140.0, 1e9),
       Family::Constant},
      {"linear", std::make_shared<core::LinearDecaySpeed>(200.0, 5e8),
       Family::LinearDecay},
      {"power", std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9),
       Family::PowerDecay},
      {"exp", std::make_shared<core::ExpDecaySpeed>(150.0, 5e4, 2e6),
       Family::ExpDecay},
      {"unimodal",
       std::make_shared<core::UnimodalSpeed>(60.0, 260.0, 2e6, 9e7, 2.5, 7e8),
       Family::Unimodal},
      {"stepped",
       std::make_shared<core::SteppedSpeed>(230.0, std::move(steps), 9e8),
       Family::Stepped},
      {"piecewise",
       std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts)),
       Family::Piecewise},
  };
}

TEST(Compiled, ClassificationTablePinsExactTypeDispatch) {
  using Wrap = CompiledSpeedList::Wrap;
  for (const FamilyCase& c : family_cases()) {
    const core::ScaledSpeed scaled(c.f, 0.75);
    const core::GranularSpeed granular(c.f, 8.0);
    const core::GranularSpeedView view(*c.f, 3.0);
    const core::SpeedList list{c.f.get(), &scaled, &granular, &view};
    const Wrap wraps[] = {Wrap::None, Wrap::Scaled, Wrap::Granular,
                          Wrap::Granular};
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    EXPECT_TRUE(compiled.fully_compiled()) << c.name;
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(compiled.family(i), c.family) << c.name << " form " << i;
      EXPECT_EQ(compiled.wrap(i), wraps[i]) << c.name << " form " << i;
      EXPECT_EQ(compiled.max_size(i), list[i]->max_size())
          << c.name << " form " << i;
      EXPECT_EQ(compiled.base(i), list[i]) << c.name << " form " << i;
    }
  }
}

TEST(Compiled, NestedWrappersAndOtherTypesCompileToGeneric) {
  auto constant = std::make_shared<core::ConstantSpeed>(140.0, 1e9);
  auto power = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  auto scaled = std::make_shared<core::ScaledSpeed>(constant, 0.5);
  auto granular = std::make_shared<core::GranularSpeed>(power, 4.0);
  const core::ScaledSpeed scaled_of_scaled(scaled, 0.5);
  const core::GranularSpeed granular_of_scaled(scaled, 4.0);
  const core::GranularSpeedView view_of_granular(*granular, 2.0);
  const core::ScaledSpeed scaled_of_unknown(std::make_shared<OddSpeed>(), 2.0);
  const core::AggregateSpeed aggregate({constant.get(), power.get()});
  const core::FixedParamSpeed fixed(
      std::make_shared<core::ShapeInvariantSurface>(power), 100.0);
  const OddSpeed odd;

  const core::SpeedList list{&scaled_of_scaled, &granular_of_scaled,
                             &view_of_granular, &scaled_of_unknown,
                             &aggregate,        &fixed,
                             &odd};
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_EQ(compiled.generic_entries(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(compiled.family(i), CompiledSpeedList::Family::Generic)
        << "entry " << i;
    EXPECT_EQ(compiled.wrap(i), CompiledSpeedList::Wrap::None)
        << "entry " << i;
    EXPECT_EQ(compiled.max_size(i), list[i]->max_size()) << "entry " << i;
    for (double x = 10.0; x <= 1e8; x *= 7.3)
      EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x)) << "entry " << i;
  }
}

/// Both 64-bit words of a list's identity: the fingerprint and the check
/// word of the same walk.
struct Identity {
  std::uint64_t fingerprint = 0;
  std::uint64_t check = 0;
};

Identity identity_of(const core::SpeedList& list) {
  Identity id;
  id.fingerprint = CompiledSpeedList::fingerprint_of(list, nullptr, &id.check);
  return id;
}

/// Expects both words to tell the two lists apart.
void expect_keyed_apart(const core::SpeedList& a, const core::SpeedList& b,
                        const std::string& what) {
  const Identity ia = identity_of(a);
  const Identity ib = identity_of(b);
  EXPECT_NE(ia.fingerprint, ib.fingerprint) << what;
  EXPECT_NE(ia.check, ib.check) << what;
}

void expect_keyed_apart(const core::SpeedFunction& a,
                        const core::SpeedFunction& b, const std::string& what) {
  expect_keyed_apart(core::SpeedList{&a}, core::SpeedList{&b}, what);
}

/// Builds a model from `params`, then checks that moving any one parameter
/// to the next representable double changes the fingerprint and the check
/// word.
template <typename Make>
void expect_every_param_hashed(const char* name, std::vector<double> params,
                               Make make) {
  const auto base = make(params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::vector<double> moved = params;
    moved[i] = std::nextafter(moved[i], HUGE_VAL);
    expect_keyed_apart(*make(moved), *base,
                       std::string(name) + " parameter " + std::to_string(i));
  }
}

TEST(Compiled, FingerprintSeesEveryParameterStepAndBreakpoint) {
  using Ptr = std::shared_ptr<const core::SpeedFunction>;
  using V = std::vector<double>;
  expect_every_param_hashed("constant", {140.0, 1e9}, [](const V& v) -> Ptr {
    return std::make_shared<core::ConstantSpeed>(v[0], v[1]);
  });
  expect_every_param_hashed("linear", {200.0, 5e8, 1e-3},
                            [](const V& v) -> Ptr {
                              return std::make_shared<core::LinearDecaySpeed>(
                                  v[0], v[1], v[2]);
                            });
  expect_every_param_hashed(
      "power", {170.0, 3e7, 1.1, 1e9}, [](const V& v) -> Ptr {
        return std::make_shared<core::PowerDecaySpeed>(v[0], v[1], v[2], v[3]);
      });
  expect_every_param_hashed("exp", {150.0, 5e4, 2e6}, [](const V& v) -> Ptr {
    return std::make_shared<core::ExpDecaySpeed>(v[0], v[1], v[2]);
  });
  expect_every_param_hashed(
      "unimodal", {60.0, 260.0, 2e6, 9e7, 2.5, 7e8}, [](const V& v) -> Ptr {
        return std::make_shared<core::UnimodalSpeed>(v[0], v[1], v[2], v[3],
                                                     v[4], v[5]);
      });
  // s0, max_size, then (at, to, width) of each step.
  expect_every_param_hashed(
      "stepped", {230.0, 9e8, 5e5, 180.0, 2e5, 1.2e8, 12.0, 8e6},
      [](const V& v) -> Ptr {
        return std::make_shared<core::SteppedSpeed>(
            v[0],
            std::vector<core::SteppedSpeed::Step>{{v[2], v[3], v[4]},
                                                  {v[5], v[6], v[7]}},
            v[1]);
      });
  // (at, to, width) of each of three steps: the three chains of a step.
  expect_every_param_hashed(
      "stepped3",
      {230.0, 9e8, 5e5, 180.0, 2e5, 1.2e8, 12.0, 8e6, 3e8, 4.0, 2e7},
      [](const V& v) -> Ptr {
        return std::make_shared<core::SteppedSpeed>(
            v[0],
            std::vector<core::SteppedSpeed::Step>{{v[2], v[3], v[4]},
                                                  {v[5], v[6], v[7]},
                                                  {v[8], v[9], v[10]}},
            v[1]);
      });
  // (size, speed) of each breakpoint: an even count fills all four
  // chains, an odd one leaves an unpaired last point.
  const auto piecewise = [](const V& v) -> Ptr {
    std::vector<core::SpeedPoint> pts;
    for (std::size_t i = 0; i + 1 < v.size(); i += 2)
      pts.push_back({v[i], v[i + 1]});
    return std::make_shared<core::PiecewiseLinearSpeed>(std::move(pts));
  };
  expect_every_param_hashed(
      "piecewise", {1e3, 180.0, 5e5, 160.0, 2e7, 90.0, 4e8, 12.0}, piecewise);
  expect_every_param_hashed("piecewise3", {1e3, 180.0, 5e5, 160.0, 4e8, 12.0},
                            piecewise);
  // The wrapper parameter, and the wrapped model's.
  expect_every_param_hashed("scaled", {0.75, 140.0}, [](const V& v) -> Ptr {
    return std::make_shared<core::ScaledSpeed>(
        std::make_shared<core::ConstantSpeed>(v[1], 1e9), v[0]);
  });
  expect_every_param_hashed("granular", {8.0, 140.0}, [](const V& v) -> Ptr {
    return std::make_shared<core::GranularSpeed>(
        std::make_shared<core::ConstantSpeed>(v[1], 1e9), v[0]);
  });

  // One step more or fewer, and the same parameters under another wrapper.
  using Steps = std::vector<core::SteppedSpeed::Step>;
  const core::SteppedSpeed one_step(230.0, Steps{{5e5, 180.0, 2e5}}, 9e8);
  const core::SteppedSpeed two_steps(
      230.0, Steps{{5e5, 180.0, 2e5}, {1.2e8, 12.0, 8e6}}, 9e8);
  expect_keyed_apart(one_step, two_steps, "step count");
  auto constant = std::make_shared<core::ConstantSpeed>(140.0, 1e9);
  expect_keyed_apart(core::ScaledSpeed(constant, 2.0),
                     core::GranularSpeed(constant, 2.0), "wrapper");

  // -0.0 and 0.0 are equal values with different bit patterns; a zero
  // breakpoint speed is legal, and the two must key apart.
  const core::PiecewiseLinearSpeed pos_zero(
      std::vector<core::SpeedPoint>{{1e3, 100.0}, {1e5, 50.0}, {1e7, 0.0}});
  const core::PiecewiseLinearSpeed neg_zero(
      std::vector<core::SpeedPoint>{{1e3, 100.0}, {1e5, 50.0}, {1e7, -0.0}});
  expect_keyed_apart(pos_zero, neg_zero, "signed zero");

  // Order matters: the same two models swapped are a different list, also
  // when both are of one family and differ only in their parameters.
  auto power = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  expect_keyed_apart({constant.get(), power.get()},
                     {power.get(), constant.get()}, "swap across families");
  auto power2 = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.2, 1e9);
  expect_keyed_apart({power.get(), power2.get()},
                     {power2.get(), power.get()}, "swap within a family");
}

/// Every layout a compiled entry can take: each family bare (its batch
/// lane; Piecewise its record and the breakpoint pool), under each wrapper
/// (a parameter record), a 9-step stepped model (irregular: a record and
/// the step pool), a one-step stepped model sharing the lane with a
/// two-step one (an identity pad step), and a Generic entry.
struct LayoutZoo {
  test::CurveSet owned;
  std::vector<std::unique_ptr<const core::SpeedFunction>> views;
  core::SpeedList list;
};

LayoutZoo layout_zoo() {
  LayoutZoo zoo;
  for (const FamilyCase& c : family_cases()) {
    zoo.owned.push_back(c.f);
    zoo.owned.push_back(std::make_shared<core::ScaledSpeed>(c.f, 0.75));
    zoo.owned.push_back(std::make_shared<core::GranularSpeed>(c.f, 8.0));
    zoo.views.push_back(std::make_unique<core::GranularSpeedView>(*c.f, 3.0));
  }
  std::vector<core::SteppedSpeed::Step> many;
  double at = 1e4;
  double level = 230.0;
  for (int s = 0; s < 9; ++s) {
    level *= 0.8;
    many.push_back({at, level, 0.2 * at});
    at *= 4.0;
  }
  zoo.owned.push_back(
      std::make_shared<core::SteppedSpeed>(230.0, std::move(many), 9e8));
  zoo.owned.push_back(std::make_shared<core::SteppedSpeed>(
      200.0, std::vector<core::SteppedSpeed::Step>{{4e5, 150.0, 1e5}}, 8e8));
  zoo.views.push_back(std::make_unique<test::VirtualOnly>(*zoo.owned[0]));
  for (const auto& f : zoo.owned) zoo.list.push_back(f.get());
  for (const auto& v : zoo.views) zoo.list.push_back(v.get());
  return zoo;
}

TEST(Compiled, RecordsAndStepSlabsMatchTheVirtualModels) {
  const BackendScope scalar("off");
  const LayoutZoo zoo = layout_zoo();
  const core::SpeedList& list = zoo.list;
  const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
  EXPECT_EQ(compiled.generic_entries(), 1u);
  // The six bare lane families and the one-step stepped model.
  EXPECT_EQ(compiled.batched_entries(), 7u);
  for (std::size_t i = 0; i < list.size(); ++i) {
    EXPECT_EQ(compiled.max_size(i), list[i]->max_size()) << "entry " << i;
    for (double x = 1.0; x <= 4e9; x *= 3.7)
      EXPECT_EQ(compiled.speed(i, x), list[i]->speed(x))
          << "entry " << i << " at x=" << x;
    for (double x = 10.0; x <= 1e8; x *= 10.0) {
      const double slope = list[i]->speed(x) / x;
      EXPECT_EQ(compiled.intersect(i, slope), list[i]->intersect(slope))
          << "entry " << i << " slope through x=" << x;
    }
  }
}

/// Every answer a compiled list gives, as bit patterns in a fixed order:
/// the accessors, speed() and intersect() of each entry, three
/// intersect_all sweeps across its Figure-18 bracket and one speed_all
/// sweep.
std::vector<std::uint64_t> answers(const CompiledSpeedList& c) {
  std::vector<std::uint64_t> out{c.size(), c.fingerprint(),
                                 c.generic_entries(), c.batched_entries(),
                                 c.fully_compiled()};
  const auto put = [&out](double v) {
    out.push_back(std::bit_cast<std::uint64_t>(v));
  };
  for (std::size_t i = 0; i < c.size(); ++i) {
    out.push_back(static_cast<std::uint64_t>(c.family(i)));
    out.push_back(static_cast<std::uint64_t>(c.wrap(i)));
    out.push_back(reinterpret_cast<std::uintptr_t>(c.base(i)));
    put(c.max_size(i));
    for (const double x : {1e3, 2.5e5, 3e7, 2e9}) put(c.speed(i, x));
    for (const double x : {1e4, 1e7}) put(c.intersect(i, c.speed(i, x) / x));
  }
  if (c.size() == 0) return out;
  const auto n = static_cast<std::int64_t>(1e6 * static_cast<double>(c.size()));
  const core::SlopeBracket br = core::detect_bracket(c, n, nullptr);
  std::vector<double> sizes(c.size());
  for (const double slope :
       {br.hi_slope, br.lo_slope, std::sqrt(br.hi_slope * br.lo_slope)}) {
    c.intersect_all(slope, sizes);
    for (const double x : sizes) put(x);
  }
  std::vector<double> xs(c.size());
  for (std::size_t i = 0; i < xs.size(); ++i)
    xs[i] = 1.0 + 977.0 * static_cast<double>(i);
  c.speed_all(xs, sizes);
  for (const double s : sizes) put(s);
  return out;
}

TEST(Compiled, CopiesAndMovesAnswerBitIdenticallyOnceTheSourceIsGone) {
  const LayoutZoo zoo = layout_zoo();
  const core::SyntheticFleet fleet64 = core::make_synthetic_fleet(64, 2004);
  const core::SyntheticFleet fleet4096 = core::make_synthetic_fleet(4096, 1);
  auto one = std::make_shared<core::PowerDecaySpeed>(170.0, 3e7, 1.1, 1e9);
  const std::vector<std::pair<std::string, core::SpeedList>> lists{
      {"every layout", zoo.list},
      {"p = 0", {}},
      {"p = 1", {one.get()}},
      {"p = 64", fleet64.list()},
      {"p = 4096", fleet4096.list()}};
  for (const char* backend : {"off", "auto"}) {
    const BackendScope scope(backend);
    for (const auto& [name, list] : lists) {
      const std::string what = name + " (" + backend + ")";
      const std::vector<std::uint64_t> want =
          answers(CompiledSpeedList::compile(list));
      auto source =
          std::make_unique<CompiledSpeedList>(CompiledSpeedList::compile(list));
      const CompiledSpeedList copied(*source);
      // Assignments replace a list that owns a block of its own.
      CompiledSpeedList copy_assigned = CompiledSpeedList::compile(zoo.list);
      copy_assigned = *source;
      const CompiledSpeedList moved(std::move(*source));
      EXPECT_EQ(source->size(), 0u) << what;  // a move empties its source
      EXPECT_TRUE(CompiledLayoutProbe::columns(*source).empty()) << what;
      source.reset();
      CompiledSpeedList move_assigned = CompiledSpeedList::compile(zoo.list);
      {
        CompiledSpeedList donor(copied);
        move_assigned = std::move(donor);
      }
      EXPECT_TRUE(answers(copied) == want) << what << ": copy";
      EXPECT_TRUE(answers(copy_assigned) == want) << what << ": copy-assign";
      EXPECT_TRUE(answers(moved) == want) << what << ": move";
      EXPECT_TRUE(answers(move_assigned) == want) << what << ": move-assign";
    }
  }
}

TEST(Compiled, LaneColumnsStartOn64ByteBoundaries) {
  const LayoutZoo zoo = layout_zoo();
  const core::SyntheticFleet fleet64 = core::make_synthetic_fleet(64, 2004);
  const core::SyntheticFleet fleet4096 = core::make_synthetic_fleet(4096, 1);
  // Every lane: Constant 2, LinearDecay 3, PowerDecay 4, ExpDecay 3,
  // Unimodal 6 and Stepped 2 columns, plus the 3 step slabs.
  EXPECT_EQ(
      CompiledLayoutProbe::columns(CompiledSpeedList::compile(zoo.list)).size(),
      23u);
  EXPECT_TRUE(
      CompiledLayoutProbe::columns(CompiledSpeedList::compile({})).empty());
  for (const core::SpeedList& list :
       {zoo.list, fleet64.list(), fleet4096.list()}) {
    const CompiledSpeedList compiled = CompiledSpeedList::compile(list);
    const CompiledSpeedList copy(compiled);
    for (const CompiledSpeedList* c : {&compiled, &copy}) {
      const auto columns = CompiledLayoutProbe::columns(*c);
      EXPECT_FALSE(columns.empty()) << "p = " << list.size();
      for (const std::span<const double> column : columns) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(column.data()) % 64, 0u)
            << "p = " << list.size();
        EXPECT_FALSE(column.empty()) << "p = " << list.size();
        EXPECT_EQ(column.size() % core::detail::simd::kMaxLanes, 0u)
            << "p = " << list.size();
      }
    }
  }
}

}  // namespace
}  // namespace fpm
