// SLO-aware serving: the degraded-answer error bound (property-tested
// against every registry algorithm), the queue-delay estimator, admission
// control, priority shedding, run_batch's 1:1 contract, drain(), and the
// offered == admitted + degraded + shed accounting invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/fleetgen.hpp"
#include "core/fpm.hpp"
#include "core/server.hpp"
#include "core/slo.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace fpm {
namespace {

using namespace std::chrono_literals;

core::SloStats expect_invariant(const core::PartitionServer& server) {
  const core::SloStats s = server.slo_stats();
  EXPECT_EQ(s.offered, s.admitted + s.degraded + s.shed);
  EXPECT_EQ(s.shed, s.shed_admission + s.shed_queue_full + s.shed_expired +
                        s.shed_shutdown);
  return s;
}

// ---------------------------------------------------------------------------
// degraded_answer: construction and the error bound
// ---------------------------------------------------------------------------

TEST(DegradedAnswer, RescalesToExactlyN) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  const core::PartitionResult prev = core::partition(list, 100000);
  for (const std::int64_t n : {1LL, 7LL, 99999LL, 100001LL, 500000LL}) {
    const auto ans =
        core::degraded_answer(list, n, prev.distribution.counts, 100000);
    ASSERT_TRUE(ans.has_value()) << "n=" << n;
    EXPECT_EQ(ans->distribution.total(), n);
    EXPECT_GE(ans->error_bound, 0.0);
    EXPECT_TRUE(std::isfinite(ans->error_bound));
  }
}

TEST(DegradedAnswer, LeftoverGoesToLargestRemaindersLowerIndexFirst) {
  // Each processor gets floor(prev_i * n / prev_total); the leftover
  // elements go to the largest remainders, ties to the lower index.
  struct Case {
    std::vector<std::int64_t> prev;
    std::int64_t n;
    std::vector<std::int64_t> want;
  };
  const std::vector<Case> cases = {
      {{1, 1, 1}, 4, {2, 1, 1}},              // all tied: lowest index
      {{3, 2, 1}, 10, {5, 3, 2}},             // remainders 0, 2, 4
      {{1, 2, 3, 4}, 7, {1, 1, 2, 3}},        // remainders 7, 4, 1, 8
      {{1, 1, 1, 1, 1}, 9, {2, 2, 2, 2, 1}},  // leftover p - 1
      {{2, 4}, 3, {1, 2}},                    // no leftover
  };
  for (const Case& c : cases) {
    const test::Ensemble e = test::constant_ensemble(c.prev.size());
    const std::int64_t prev_total =
        std::accumulate(c.prev.begin(), c.prev.end(), std::int64_t{0});
    const auto ans = core::degraded_answer(e.list(), c.n, c.prev, prev_total);
    ASSERT_TRUE(ans.has_value()) << "n=" << c.n;
    EXPECT_EQ(ans->distribution.counts, c.want) << "n=" << c.n;
  }

  // At scale, against the rule written out with a full sort.
  constexpr std::size_t kP = 257;
  const test::Ensemble e = test::constant_ensemble(kP);
  std::vector<std::int64_t> prev(kP);
  for (std::size_t i = 0; i < kP; ++i)
    prev[i] = static_cast<std::int64_t>((i * 7919) % 1000 + (i % 3 == 0));
  const std::int64_t prev_total =
      std::accumulate(prev.begin(), prev.end(), std::int64_t{0});
  for (const std::int64_t n :
       {prev_total - 1, 3 * prev_total + 100, std::int64_t{1000}}) {
    std::vector<std::int64_t> want(kP);
    std::vector<std::pair<std::int64_t, std::size_t>> rem;
    std::int64_t assigned = 0;
    for (std::size_t i = 0; i < kP; ++i) {
      want[i] = prev[i] * n / prev_total;
      assigned += want[i];
      rem.emplace_back(-(prev[i] * n % prev_total), i);
    }
    std::sort(rem.begin(), rem.end());
    for (std::int64_t j = 0; j < n - assigned; ++j)
      ++want[rem[static_cast<std::size_t>(j)].second];
    const auto ans = core::degraded_answer(e.list(), n, prev, prev_total);
    ASSERT_TRUE(ans.has_value()) << "n=" << n;
    EXPECT_EQ(ans->distribution.counts, want) << "n=" << n;
  }
}

TEST(DegradedAnswer, RejectsUnusableInputs) {
  const test::Ensemble e = test::constant_ensemble(3);
  const core::SpeedList list = e.list();
  const std::vector<std::int64_t> prev{400, 300, 300};
  // Size mismatch, bad n, bad prev_n, negative and all-zero counts.
  EXPECT_FALSE(core::degraded_answer(list, 100, {{1, 2}}, 3).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 0, prev, 1000).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 100, prev, 0).has_value());
  EXPECT_FALSE(
      core::degraded_answer(list, 100, {{-1, 500, 501}}, 1000).has_value());
  EXPECT_FALSE(core::degraded_answer(list, 100, {{0, 0, 0}}, 1).has_value());
  EXPECT_FALSE(
      core::degraded_answer(core::SpeedList{}, 100, {}, 1).has_value());
}

// The tentpole property: the reported bound dominates the true relative
// makespan error versus a cold exact solve, for every registry algorithm,
// every curve family, and a spread of (previous n, requested n) pairs —
// including heavy up- and down-scaling.
TEST(DegradedAnswer, BoundDominatesTrueErrorAcrossRegistry) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> scales = {
      {100000, 100000}, {100000, 93000},  {100000, 140000},
      {100000, 10000},  {50000, 400000},  {300000, 17}};
  int checked = 0;
  for (const test::Ensemble& e : test::all_ensembles(4)) {
    const core::SpeedList list = e.list();
    for (const std::string& id : core::partitioner_registry().ids()) {
      core::PartitionPolicy policy;
      policy.algorithm = id;
      if (id == core::kAlgorithmBounded) continue;  // needs bounds; and the
      // server never degrades bounded requests (a rescale may violate them)
      for (const auto& [prev_n, n] : scales) {
        const core::PartitionResult prev =
            core::partition(list, prev_n, policy);
        const auto ans = core::degraded_answer(
            list, n, prev.distribution.counts, prev_n);
        if (!ans) continue;  // rescale left the modelled range: no answer,
                             // and therefore no bound to check
        const core::PartitionResult exact = core::partition(list, n, policy);
        const double exact_makespan = core::makespan(list, exact.distribution);
        ASSERT_GT(exact_makespan, 0.0);
        const double true_error = ans->makespan / exact_makespan - 1.0;
        EXPECT_GE(ans->error_bound, true_error - 1e-9)
            << e.name << "/" << id << " prev_n=" << prev_n << " n=" << n;
        ++checked;
      }
    }
  }
  // The sweep must have exercised a real cross-section of the registry.
  EXPECT_GE(checked, 50);
}

/// The certificate corpus: every ensemble at p = 4 over the scales of
/// BoundDominatesTrueErrorAcrossRegistry, plus p = 64 synthetic fleets at
/// the drifts a server sees (1 + 1/64, +25%, -20%).
struct CertificateCase {
  std::string name;
  core::SpeedList list;
  std::int64_t prev_n, n;
};

std::vector<CertificateCase> certificate_cases(
    const std::vector<test::Ensemble>& ensembles,
    const std::vector<core::SyntheticFleet>& fleets) {
  const std::vector<std::pair<std::int64_t, std::int64_t>> scales = {
      {100000, 100000}, {100000, 93000},  {100000, 140000},
      {100000, 10000},  {50000, 400000},  {300000, 17}};
  std::vector<CertificateCase> cases;
  for (const test::Ensemble& e : ensembles)
    for (const auto& [prev_n, n] : scales)
      cases.push_back({e.name, e.list(), prev_n, n});
  for (std::size_t k = 0; k < fleets.size(); ++k) {
    const std::int64_t prev_n = 1'000'000 + 7919 * static_cast<std::int64_t>(k);
    for (const double drift : {1.0 + 1.0 / 64.0, 1.25, 0.8})
      cases.push_back({"fleet" + std::to_string(k), fleets[k].list(), prev_n,
                       static_cast<std::int64_t>(
                           std::llround(static_cast<double>(prev_n) * drift))});
  }
  return cases;
}

std::vector<core::SyntheticFleet> certificate_fleets() {
  std::vector<core::SyntheticFleet> fleets;
  for (std::uint64_t seed = 1; seed <= 24; ++seed)
    fleets.push_back(core::make_synthetic_fleet(64, seed));
  return fleets;
}

// The certificate solves few lines: the answer's own line and the line
// through its fastest processor bracket the optimum for free, and a secant
// closes the bracket. The doubling-plus-six-bisections rule it replaces
// read a mean of seven sweeps on this corpus and a maximum of fourteen.
TEST(DegradedAnswer, CertificateTakesFewSweeps) {
  const std::vector<test::Ensemble> ensembles = test::all_ensembles(4);
  const std::vector<core::SyntheticFleet> fleets = certificate_fleets();
  std::int64_t calls = 0;
  double sweeps_sum = 0.0;
  double sweeps_max = 0.0;
  int answers = 0;
  for (const CertificateCase& c : certificate_cases(ensembles, fleets)) {
    // Every entry compiles to Generic, so each line the certificate solves
    // costs exactly one counted intersect() per processor.
    const test::VirtualOnlyList wrapped(c.list, &calls);
    const core::SpeedList counted = wrapped.list();
    const core::PartitionResult prev = core::partition(counted, c.prev_n);
    calls = 0;
    const auto ans = core::degraded_answer(counted, c.n,
                                           prev.distribution.counts, c.prev_n);
    ASSERT_TRUE(ans.has_value()) << c.name << " n=" << c.n;
    const double sweeps = static_cast<double>(calls) /
                          static_cast<double>(counted.size());
    EXPECT_EQ(sweeps, std::floor(sweeps)) << "partial sweep: " << c.name;
    sweeps_sum += sweeps;
    sweeps_max = std::max(sweeps_max, sweeps);
    ++answers;
  }
  ASSERT_GT(answers, 100);
  EXPECT_LE(sweeps_sum / answers, 5.0);
  EXPECT_LE(sweeps_max, 8.0);
}

// The bound is never looser than the old rule's: the certified slope lies
// within 2^(1/64) of the continuous optimum c*. The exact solve's final
// slope f has total <= n, so f >= c*, and M*f*2^(1/64) - 1 caps the bound.
TEST(DegradedAnswer, BoundNoLooserThanTheOldBracket) {
  const std::vector<test::Ensemble> ensembles = test::all_ensembles(4);
  const std::vector<core::SyntheticFleet> fleets = certificate_fleets();
  const double octave64 = std::pow(2.0, 1.0 / 64.0);
  for (const CertificateCase& c : certificate_cases(ensembles, fleets)) {
    const core::PartitionResult prev = core::partition(c.list, c.prev_n);
    const auto ans = core::degraded_answer(c.list, c.n,
                                           prev.distribution.counts, c.prev_n);
    ASSERT_TRUE(ans.has_value()) << c.name << " n=" << c.n;
    const double f = core::partition(c.list, c.n).stats.final_slope;
    EXPECT_LE(ans->error_bound, ans->makespan * f * octave64 - 1.0 + 1e-9)
        << c.name << " prev_n=" << c.prev_n << " n=" << c.n;
  }
}

// ---------------------------------------------------------------------------
// QueueDelayEstimator
// ---------------------------------------------------------------------------

TEST(QueueDelayEstimator, FallsBackAcrossClassesAndConverges) {
  core::QueueDelayEstimator est(0.5);
  // Nothing observed: optimistic zero (admit everything).
  EXPECT_EQ(est.service_estimate(core::Priority::Normal), 0.0);
  // High-only samples: Normal falls back to the all-class average.
  est.record(core::Priority::High, 0.010);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::High), 0.010);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::Normal), 0.010);
  // Class samples take precedence once they exist, and the EWMA moves
  // toward recent observations.
  est.record(core::Priority::Normal, 0.002);
  EXPECT_DOUBLE_EQ(est.service_estimate(core::Priority::Normal), 0.002);
  for (int i = 0; i < 20; ++i) est.record(core::Priority::Normal, 0.004);
  EXPECT_NEAR(est.service_estimate(core::Priority::Normal), 0.004, 1e-4);
  // Queue delay scales with depth and divides over workers.
  const double one = est.queue_delay(core::Priority::Normal, 10, 1);
  const double four = est.queue_delay(core::Priority::Normal, 10, 4);
  EXPECT_NEAR(one, 4.0 * four, 1e-12);
  EXPECT_EQ(est.queue_delay(core::Priority::Normal, 0, 1), 0.0);
  // Garbage samples are dropped.
  est.record(core::Priority::Low, -1.0);
  est.record(core::Priority::Low, std::nan(""));
  EXPECT_EQ(est.samples(core::Priority::Low), 0);
}

// ---------------------------------------------------------------------------
// serve_slo
// ---------------------------------------------------------------------------

TEST(ServeSlo, GenerousDeadlineServesExactly) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  core::Slo slo;
  slo.deadline_s = 60.0;
  const core::ServeResult r = server.serve_slo(list, 123457, {}, slo);
  EXPECT_EQ(r.status, core::ServeStatus::Ok);
  EXPECT_TRUE(r.deadline_met);
  EXPECT_GT(r.latency_s, 0.0);
  EXPECT_EQ(r.result.distribution.counts,
            core::partition(list, 123457).distribution.counts);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, 1);
  EXPECT_EQ(s.admitted, 1);
}

TEST(ServeSlo, ImpossibleDeadlineDegradesFromHintStore) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  // Prime the hint store and the estimator with real solves (the plain
  // serve() is not SLO-accounted; serve_slo trains the estimator).
  server.serve(list, 200000);
  for (int i = 0; i < 5; ++i)
    (void)server.serve_slo(list, 200000 + 1000 * (i + 1), {}, {60.0});
  // A sub-nanosecond budget cannot beat the learned service time: the
  // admission controller must answer from the hint store instead.
  core::Slo tight;
  tight.deadline_s = 1e-9;
  const core::ServeResult r = server.serve_slo(list, 250000, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Degraded);
  EXPECT_EQ(r.shed_reason, core::ShedReason::Admission);
  EXPECT_EQ(r.result.distribution.total(), 250000);
  EXPECT_EQ(r.result.stats.algorithm, core::kAlgorithmDegraded);
  EXPECT_GE(r.error_bound, 0.0);
  // The degraded answer really is within its own bound of the optimum.
  const double exact = core::makespan(
      list, core::partition(list, 250000).distribution);
  const double degraded = core::makespan(list, r.result.distribution);
  EXPECT_LE(degraded, exact * (1.0 + r.error_bound) + 1e-9);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.degraded, 1);
}

// The server times every degraded answer it builds, and the timing leaves
// the answer as degraded_answer() builds it.
TEST(ServeSlo, DegradedAnswerIsTimed) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  server.serve(list, 200000);
  for (int i = 0; i < 5; ++i)
    (void)server.serve_slo(list, 201000 + 1000 * i, {}, {60.0});
  const core::PartitionResult last = server.serve(list, 206000);
  obs::Histogram& degrade =
      obs::metrics().histogram(obs::names::kServerSloDegradeSeconds);
  const std::int64_t before = degrade.snapshot().count;
  core::Slo tight;
  tight.deadline_s = 1e-9;
  const core::ServeResult r = server.serve_slo(list, 250000, {}, tight);
  ASSERT_EQ(r.status, core::ServeStatus::Degraded);
  EXPECT_EQ(degrade.snapshot().count, before + 1);
  const auto direct =
      core::degraded_answer(list, 250000, last.distribution.counts, 206000);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(r.result.distribution.counts, direct->distribution.counts);
  EXPECT_EQ(r.error_bound, direct->error_bound);
}

TEST(ServeSlo, DegradationConsentRefusedMeansShed) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  server.serve(list, 200000);
  for (int i = 0; i < 5; ++i)
    (void)server.serve_slo(list, 201000 + 1000 * i, {}, {60.0});
  core::Slo tight;
  tight.deadline_s = 1e-9;
  tight.allow_degraded = false;
  const core::ServeResult r = server.serve_slo(list, 777777, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Shed);
  EXPECT_EQ(r.shed_reason, core::ShedReason::Admission);
  EXPECT_FALSE(r.answered());
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.shed_admission, 1);
}

TEST(ServeSlo, CacheHitBeatsAnyDeadline) {
  const test::Ensemble e = test::constant_ensemble(3);
  const core::SpeedList list = e.list();
  core::PartitionServer server({.threads = 1});
  server.serve(list, 55555);  // warm the cache
  for (int i = 0; i < 3; ++i)
    (void)server.serve_slo(list, 60000 + i, {}, {60.0});  // train estimator
  core::Slo tight;
  tight.deadline_s = 1e-9;
  const core::ServeResult r = server.serve_slo(list, 55555, {}, tight);
  EXPECT_EQ(r.status, core::ServeStatus::Ok) << "cached answers are free";
  EXPECT_EQ(r.result.distribution.total(), 55555);
}

// ---------------------------------------------------------------------------
// submit / run_batch
// ---------------------------------------------------------------------------

TEST(SubmitSlo, AccountingInvariantHoldsUnderQueuePressure) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;  // every request must solve: real queue pressure
  opts.max_queue_depth = 2;
  core::PartitionServer server(opts);
  constexpr int kRequests = 64;
  std::vector<std::future<core::ServeResult>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    core::BatchRequest req{list, 100000 + 101LL * i, {}, {}};
    req.slo.priority = static_cast<core::Priority>(i % 3);
    req.slo.allow_degraded = false;  // make sheds visible as sheds
    futures.push_back(server.submit(std::move(req)));
  }
  int ok = 0, shed = 0;
  for (auto& f : futures) {
    const core::ServeResult r = f.get();
    if (r.status == core::ServeStatus::Ok) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, core::ServeStatus::Shed);
      EXPECT_EQ(r.shed_reason, core::ShedReason::QueueFull);
      ++shed;
    }
  }
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, kRequests);
  EXPECT_EQ(s.admitted, ok);
  EXPECT_EQ(s.shed_queue_full, shed);
  // A depth-2 queue in front of one worker cannot absorb 64 requests.
  EXPECT_GT(shed, 0);
  EXPECT_GT(ok, 0);
}

/// A constant-speed model (a Generic entry to the compiled layer) whose
/// first speed() call signals and then blocks until release(): a request
/// over it holds the server's worker inside its solve.
class GateSpeed final : public core::SpeedFunction {
 public:
  double speed(double) const override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return 100.0;
  }
  double max_size() const override { return 1e9; }

  /// True once some speed() call has started, false after `timeout`.
  bool wait_entered(std::chrono::seconds timeout) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return entered_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

TEST(SubmitSlo, DisplacementPrefersLowestPriorityLatestDeadline) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  GateSpeed gate;
  core::SpeedList gated = e.list();
  gated.push_back(&gate);
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  opts.max_queue_depth = 1;
  core::PartitionServer server(opts);
  // Declared after the server, so the worker is released before the
  // server's destructor joins it, whatever assertion fails first.
  struct Release {
    GateSpeed& gate;
    ~Release() { gate.release(); }
  } release{gate};
  const auto request = [](const core::SpeedList& speeds, std::int64_t n,
                          core::Priority priority) {
    core::BatchRequest req{speeds, n, {}, {}};
    req.slo.priority = priority;
    req.slo.allow_degraded = false;
    return req;
  };
  // Hold the single worker inside a solve, then fill the depth-1 queue
  // with a Low request: a High submission must displace that Low request,
  // not be rejected itself.
  std::future<core::ServeResult> held =
      server.submit(request(gated, 100000, core::Priority::Normal));
  ASSERT_TRUE(gate.wait_entered(std::chrono::seconds(60)));
  std::future<core::ServeResult> low =
      server.submit(request(list, 400000, core::Priority::Low));
  std::future<core::ServeResult> high =
      server.submit(request(list, 999999, core::Priority::High));
  // The displaced request is shed inside the High submit() call.
  ASSERT_EQ(low.wait_for(0s), std::future_status::ready);
  const core::ServeResult lr = low.get();
  EXPECT_EQ(lr.status, core::ServeStatus::Shed);
  EXPECT_EQ(lr.shed_reason, core::ShedReason::QueueFull);
  gate.release();
  const core::ServeResult hr = high.get();
  EXPECT_EQ(hr.status, core::ServeStatus::Ok)
      << "a High request must never lose a full queue to Low requests";
  EXPECT_EQ(hr.result.distribution.total(), 999999);
  EXPECT_EQ(held.get().status, core::ServeStatus::Ok);
  const core::SloStats s = expect_invariant(server);
  EXPECT_EQ(s.offered, 3);
  EXPECT_EQ(s.admitted, 2);
  EXPECT_EQ(s.shed_queue_full, 1);
}

// ---------------------------------------------------------------------------
// Shared compiled models: queued requests of one fleet compile it once
// ---------------------------------------------------------------------------

TEST(SubmitSlo, QueuedFleetSharesOneCompiledModel) {
  const core::SyntheticFleet fleet = core::make_synthetic_fleet(64, 34);
  const core::SpeedList list = fleet.list();
  const test::Ensemble e = test::mixed_ensemble();
  GateSpeed gate;
  core::SpeedList gated = e.list();
  gated.push_back(&gate);
  core::ServerOptions opts;
  opts.threads = 1;
  opts.max_queue_depth = 4;
  core::PartitionServer server(opts);
  struct Release {
    GateSpeed& gate;
    ~Release() { gate.release(); }
  } release{gate};
  obs::Counter& reused =
      obs::metrics().counter(obs::names::kServerModelsReused);
  const std::int64_t reused_before = reused.value();
  // A synchronous solve stores the fleet's hint (the degraded answers'
  // source) and holds no model: nothing of the fleet waits in the queue.
  constexpr std::int64_t kPrevN = 2'000'000;
  const core::PartitionResult prev = server.serve(list, kPrevN);
  EXPECT_EQ(server.cache_stats().models_held, 0u);

  std::future<core::ServeResult> held = server.submit({gated, 100000, {}, {}});
  ASSERT_TRUE(gate.wait_entered(std::chrono::seconds(60)));
  // Four Low requests fill the depth-4 queue; three High and one Normal
  // displace them (each victim is degraded on this thread), and a last
  // Normal request is the queue's worst and is degraded itself.
  struct Sent {
    std::int64_t n;
    std::future<core::ServeResult> answer;
  };
  std::vector<Sent> sent;
  const core::Priority order[] = {
      core::Priority::Low,  core::Priority::Low,    core::Priority::Low,
      core::Priority::Low,  core::Priority::High,   core::Priority::High,
      core::Priority::High, core::Priority::Normal, core::Priority::Normal};
  for (std::size_t i = 0; i < std::size(order); ++i) {
    core::BatchRequest req{list, 1'900'000 + 7919 * static_cast<std::int64_t>(i),
                           {}, {}};
    req.slo.priority = order[i];
    const std::int64_t n = req.n;
    sent.push_back({n, server.submit(std::move(req))});
  }
  // One compilation so far, by the first degraded answer, and the queued
  // requests keep it.
  EXPECT_EQ(server.cache_stats().models_held, 1u);
  gate.release();
  ASSERT_TRUE(server.drain(std::chrono::seconds(60)));
  EXPECT_EQ(held.get().status, core::ServeStatus::Ok);

  int ok = 0, degraded = 0;
  for (Sent& s : sent) {
    const core::ServeResult r = s.answer.get();
    if (r.status == core::ServeStatus::Ok) {
      ++ok;
      EXPECT_EQ(r.result.distribution.counts,
                core::partition(list, s.n).distribution.counts)
          << "n = " << s.n;
    } else {
      ASSERT_EQ(r.status, core::ServeStatus::Degraded) << "n = " << s.n;
      ++degraded;
      const auto want = core::degraded_answer(
          list, s.n, prev.distribution.counts, kPrevN);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(r.result.distribution.counts, want->distribution.counts)
          << "n = " << s.n;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.error_bound),
                std::bit_cast<std::uint64_t>(want->error_bound))
          << "n = " << s.n;
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(degraded, 5);
  // Nine answers, one compilation: the other eight ran on the held model.
  EXPECT_EQ(reused.value() - reused_before, 8);
  EXPECT_EQ(server.cache_stats().models_held, 0u)
      << "a model outlived the queue";
  EXPECT_EQ(obs::metrics().gauge(obs::names::kServerModelsHeld).value(), 0);
  expect_invariant(server);
}

TEST(SubmitSlo, EqualContentFromOtherObjectsCompilesAgain) {
  // Two fleets of equal content share the 128-bit key but not their
  // objects. The first fleet is destroyed while the model compiled from it
  // is still held; the second fleet's requests must not run on it.
  std::optional<core::SyntheticFleet> first(core::make_synthetic_fleet(64, 35));
  const core::SyntheticFleet second = core::make_synthetic_fleet(64, 35);
  const core::SpeedList a = first->list();
  const core::SpeedList b = second.list();
  std::uint64_t check_a = 0, check_b = 0;
  ASSERT_EQ(core::CompiledSpeedList::fingerprint_of(a, nullptr, &check_a),
            core::CompiledSpeedList::fingerprint_of(b, nullptr, &check_b));
  ASSERT_EQ(check_a, check_b);

  const test::Ensemble e = test::mixed_ensemble();
  GateSpeed gate1, gate2;
  core::SpeedList gated1 = e.list(), gated2 = e.list();
  gated1.push_back(&gate1);
  gated2.push_back(&gate2);
  core::ServerOptions opts;
  opts.threads = 1;
  core::PartitionServer server(opts);
  struct Release {
    GateSpeed& one;
    GateSpeed& two;
    ~Release() {
      one.release();
      two.release();
    }
  } release{gate1, gate2};
  obs::Counter& reused =
      obs::metrics().counter(obs::names::kServerModelsReused);
  const std::int64_t reused_before = reused.value();
  (void)server.serve(a, 3'000'000);  // the fleet's hint-store entry
  EXPECT_EQ(server.cache_stats().models_held, 0u);

  const auto request = [](const core::SpeedList& speeds, std::int64_t n,
                          core::Priority priority) {
    core::BatchRequest req{speeds, n, {}, {}};
    req.slo.priority = priority;
    return req;
  };
  std::future<core::ServeResult> g1 =
      server.submit(request(gated1, 100000, core::Priority::High));
  ASSERT_TRUE(gate1.wait_entered(std::chrono::seconds(60)));
  // Queue order: A's request, the second gated solve, then B's two.
  std::future<core::ServeResult> ra =
      server.submit(request(a, 3'100'000, core::Priority::High));
  std::future<core::ServeResult> g2 =
      server.submit(request(gated2, 100000, core::Priority::Normal));
  std::future<core::ServeResult> rb =
      server.submit(request(b, 3'200'000, core::Priority::Low));
  std::future<core::ServeResult> rb2 =
      server.submit(request(b, 3'300'000, core::Priority::Low));
  gate1.release();
  const core::ServeResult answer_a = ra.get();
  EXPECT_EQ(answer_a.status, core::ServeStatus::Ok);
  ASSERT_TRUE(gate2.wait_entered(std::chrono::seconds(60)));
  // A's request compiled the model from A's objects; B's requests still
  // wait, so the entry holds it. Free A's objects now.
  EXPECT_EQ(server.cache_stats().models_held, 1u);
  EXPECT_EQ(reused.value(), reused_before);
  first.reset();
  gate2.release();
  ASSERT_TRUE(server.drain(std::chrono::seconds(60)));
  EXPECT_EQ(g1.get().status, core::ServeStatus::Ok);
  EXPECT_EQ(g2.get().status, core::ServeStatus::Ok);
  const core::ServeResult answer_b = rb.get();
  const core::ServeResult answer_b2 = rb2.get();
  ASSERT_EQ(answer_b.status, core::ServeStatus::Ok);
  ASSERT_EQ(answer_b2.status, core::ServeStatus::Ok);
  EXPECT_EQ(answer_b.result.distribution.counts,
            core::partition(b, 3'200'000).distribution.counts);
  EXPECT_EQ(answer_b2.result.distribution.counts,
            core::partition(b, 3'300'000).distribution.counts);
  // B's first request compiled its own model (A's did not fit its
  // objects) and B's second ran on it: one reuse in all.
  EXPECT_EQ(reused.value() - reused_before, 1);
  EXPECT_EQ(server.cache_stats().models_held, 0u);
}

TEST(RunBatch, ResultsMapOneToOneWithShedEntriesMarkedInPlace) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  opts.max_queue_depth = 2;
  core::PartitionServer server(opts);
  constexpr int kRequests = 32;
  std::vector<core::BatchRequest> batch;
  std::vector<std::int64_t> ns;
  for (int i = 0; i < kRequests; ++i) {
    const std::int64_t n = 50000 + 997LL * i;  // all distinct: n identifies
    ns.push_back(n);                           // the request
    core::BatchRequest req{list, n, {}, {}};
    req.slo.allow_degraded = false;
    batch.push_back(std::move(req));
  }
  const std::vector<core::ServeResult> results =
      server.run_batch(std::move(batch));
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const core::ServeResult& r = results[static_cast<std::size_t>(i)];
    if (r.answered()) {
      // Distinct n per request: the total proves result i answers request i.
      EXPECT_EQ(r.result.distribution.total(), ns[static_cast<std::size_t>(i)])
          << "result " << i << " answers a different request";
    } else {
      EXPECT_EQ(r.shed_reason, core::ShedReason::QueueFull);
      EXPECT_TRUE(r.result.distribution.counts.empty());
    }
  }
  expect_invariant(server);
}

// ---------------------------------------------------------------------------
// Hint-store bounds
// ---------------------------------------------------------------------------

TEST(HintStore, FingerprintChurnEvictsLruAndCounts) {
  core::ServerOptions opts;
  opts.threads = 1;
  opts.hint_capacity = 16;  // one hint per shard
  core::PartitionServer server(opts);
  // 48 distinct fingerprints (distinct constant speeds) through 16 shards:
  // the store must stay bounded and count its evictions.
  std::vector<std::shared_ptr<const core::SpeedFunction>> owned;
  for (int i = 0; i < 48; ++i) {
    owned.clear();
    for (int p = 0; p < 3; ++p)
      owned.push_back(std::make_shared<core::ConstantSpeed>(
          100.0 + i * 10.0 + p * 3.0, 1e9));
    core::SpeedList list;
    for (const auto& f : owned) list.push_back(f.get());
    (void)server.serve(list, 10000 + i);
  }
  const core::CacheStats s = server.cache_stats();
  EXPECT_LE(s.hint_entries, 16u);
  EXPECT_GT(s.hint_evictions, 0);
  EXPECT_GE(obs::metrics().counter(obs::names::kServerHintsEvicted).value(),
            s.hint_evictions);
}

TEST(HintStore, RecentlyUsedHintSurvivesEviction) {
  core::ServerOptions opts;
  opts.threads = 1;
  opts.hint_capacity = 32;  // two hints per shard
  core::PartitionServer server(opts);
  // Three model lists in one hint shard (equal fingerprints mod 16): the
  // same curves under different max_size, so only the fingerprint differs.
  std::vector<test::Ensemble> fleets;
  std::uint64_t shard = 0;
  for (int k = 0; fleets.size() < 3 && k < 1000; ++k) {
    test::Ensemble e = test::power_ensemble(6, 1e9 + 1e6 * k);
    const std::uint64_t fp = core::CompiledSpeedList::fingerprint_of(e.list());
    if (fleets.empty()) shard = fp % 16;
    if (fp % 16 == shard) fleets.push_back(std::move(e));
  }
  ASSERT_EQ(fleets.size(), 3u);
  const core::SpeedList a = fleets[0].list();
  const core::SpeedList b = fleets[1].list();
  const core::SpeedList c = fleets[2].list();
  (void)server.serve(a, 820'001);
  (void)server.serve(b, 820'001);
  // Re-serving A at a new n uses its hint and makes it the most recent.
  EXPECT_EQ(server.serve(a, 820'013).stats.warmstart, core::WarmStart::Hit);
  (void)server.serve(c, 820'001);  // evicts B, the least recently used
  EXPECT_EQ(server.serve(a, 820'029).stats.warmstart, core::WarmStart::Hit);
  EXPECT_EQ(server.serve(b, 820'029).stats.warmstart, core::WarmStart::None);
  EXPECT_GT(server.cache_stats().hint_evictions, 0);
}

// ---------------------------------------------------------------------------
// drain
// ---------------------------------------------------------------------------

TEST(Drain, TimeoutShedsQueuedWorkAndServerStaysUsable) {
  const test::Ensemble e = test::mixed_ensemble();
  const core::SpeedList list = e.list();
  core::ServerOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;
  core::PartitionServer server(opts);
  std::vector<std::future<core::ServeResult>> futures;
  for (int i = 0; i < 32; ++i) {
    core::BatchRequest req{list, 300000 + 1009LL * i, {}, {}};
    req.slo.allow_degraded = false;
    futures.push_back(server.submit(std::move(req)));
  }
  // A zero-ish timeout cannot drain 32 solves through one worker: the
  // leftovers are shed, every future is fulfilled, nothing hangs.
  const bool drained = server.drain(1us);
  int answered = 0, shed = 0;
  for (auto& f : futures) {
    const core::ServeResult r = f.get();
    (r.status == core::ServeStatus::Shed ? shed : answered) += 1;
    if (r.status == core::ServeStatus::Shed) {
      EXPECT_EQ(r.shed_reason, core::ShedReason::Shutdown);
    }
  }
  if (!drained) {
    EXPECT_GT(shed, 0);
  }
  EXPECT_EQ(answered + shed, 32);
  // The server accepts and completes new work after a timed-out drain.
  const core::ServeResult after = server.submit({list, 4242, {}, {}}).get();
  EXPECT_EQ(after.status, core::ServeStatus::Ok);
  EXPECT_EQ(after.result.distribution.total(), 4242);
  EXPECT_TRUE(server.drain(30s));
  expect_invariant(server);
}

}  // namespace
}  // namespace fpm
