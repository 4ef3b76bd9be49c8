// fpm_perf: runs one workload of the repository benchmark in this process
// and prints one JSON object (its result) on stdout. run.py builds this
// binary, runs each workload in a fresh process, and reports.
//
//   fpm_perf --workload NAME --seconds S [--seed N] [--trace 0|1]
//            [--spans-out FILE]
//   fpm_perf --selftest
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/compiled.hpp"
#include "perf.hpp"
#include "util/cli.hpp"

namespace {

using namespace fpm;
using namespace fpm::perf;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Options& options, const RunResult& r) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (r.correct() ? "true" : "false")
      << ", \"valid\": " << (r.valid() ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i)
    out << (i ? ", " : "") << json_string(r.problems[i]);
  out << "], \"invalid\": [";
  for (std::size_t i = 0; i < r.invalid.size(); ++i)
    out << (i ? ", " : "") << json_string(r.invalid[i]);
  out << "], \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit)
        << ", \"samples\": " << m.samples << "}";
  }
  out << "}, \"host\": {\"simd_backend\": "
      << json_string(core::to_string(core::active_simd_backend()))
      << ", \"compiler\": " << json_string(__VERSION__)
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << "}}";
  std::cout << out.str() << std::endl;
}

/// Checks the quantile sample rule and the span self-time arithmetic.
int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "selftest FAILED: " << what << "\n";
      ++failures;
    }
  };
  const auto ramp = [](int n, double scale_ms) {
    Samples s;
    for (int i = n; i >= 1; --i) s.add_ms(i * scale_ms);  // unsorted
    return s;
  };
  const auto throws = [](const Samples& s, double q) {
    try {
      (void)s.quantile_ms(q);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  constexpr double ns = 1e-6;  // ms
  expect(throws(ramp(999, ns), 0.99), "p99 of 999 samples must fail");
  expect(!throws(ramp(1000, ns), 0.99), "p99 of 1000 samples is allowed");
  expect(throws(ramp(19, ns), 0.50), "p50 of 19 samples must fail");
  expect(throws(Samples{}, 0.50), "quantile of no samples must fail");
  expect(!ramp(999, ns).observed(0.99) && ramp(1000, ns).observed(0.99) &&
             Samples{}.estimate_ms(0.99) == 0.0 &&
             ramp(999, ns).estimate_ms(0.99) > 0.0,
         "observed() is the p99 rule; estimate_ms() ignores it");
  // 1..1000 ns is recorded exactly; rank 0.99 * 999 = 989.01 lies between
  // the samples 990 and 991, rank 499.5 between 500 and 501.
  expect(std::abs(ramp(1000, ns).quantile_ms(0.99) / ns - 990.01) < 1e-6,
         "p99 of 1..1000 ns");
  expect(std::abs(ramp(1000, ns).quantile_ms(0.50) / ns - 500.5) < 1e-6,
         "p50 of 1..1000 ns");
  // Above 2048 ns the buckets are 1/1024 wide: 1..1000 us keeps the
  // quantiles within that resolution, merged halves add up.
  Samples low, high;
  for (int i = 1; i <= 1000; ++i) (i <= 500 ? low : high).add_ms(i * 1e-3);
  low.merge(high);
  expect(low.count() == 1000, "merge adds counts");
  expect(std::abs(low.quantile_ms(0.99) / 0.99001 - 1.0) < 1.0 / 1024,
         "p99 of 1..1000 us within the bucket resolution");
  expect(std::abs(low.quantile_ms(0.50) / 0.5005 - 1.0) < 1.0 / 1024,
         "p50 of 1..1000 us within the bucket resolution");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0}) == 2.5,
         "median");

  expect(std::abs(quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.1) - 1.4) < 1e-12 &&
             std::abs(quantile({5.0, 1.0, 3.0, 2.0, 4.0}, 0.9) - 4.6) < 1e-12,
         "quantile interpolates between ranks");
  // Windows tile the run and clamp; a window median needs 20 latencies.
  const Clock::time_point t0 = Clock::now();
  const Windows windows(t0, 2.6 * kWindowS);
  const double length = windows.length_s();
  const auto when = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  expect(windows.count() == 3 &&
             std::abs(length - 2.6 * kWindowS / 3) < 1e-12,
         "2.6 window lengths make three windows");
  expect(windows.at(when(-1.0)) == 0 &&
             windows.at(when(1.5 * length)) == 1 &&
             windows.at(when(9.0 * length)) == 2,
         "window lookup clamps to the run");
  // Window 0 gets 22 records length/100 apart, window 2 gets 19 records
  // length/1000 apart.
  WindowLog log(windows);
  for (int i = 1; i <= 21; ++i)
    log.record(when(i * length / 100), true, true, i);
  log.record(when(0.22 * length), false, false, std::nan(""));
  for (int i = 1; i <= 19; ++i)
    log.record(when(2.5 * length + i * length / 1000), true, i < 10, i);
  log.close();
  expect(log.p50_ms[0] == 11.0 && std::isnan(log.p50_ms[1]) &&
             std::isnan(log.p50_ms[2]),
         "window medians: 21 latencies suffice, 19 do not");
  expect(log.attempted[0] == 22 && log.answered[0] == 21 &&
             log.on_time[2] == 9 && log.attempted[1] == 0,
         "window tallies");
  expect(std::abs(log.pace(0) * length / 100 - 1.0) < 1e-6 &&
             std::abs(log.pace(2) * length / 1000 - 1.0) < 1e-6 &&
             log.pace(1) == 0.0,
         "window pace: one record per gap between the first and the last");
  // No (seed, client) stream repeats another's, so a second seed is always
  // a different draw of the traffic.
  std::vector<std::uint64_t> streams;
  for (std::uint64_t s = 0; s < 64; ++s)
    for (int c = 0; c < 2; ++c) streams.push_back(client_seed(s, c));
  std::sort(streams.begin(), streams.end());
  expect(std::adjacent_find(streams.begin(), streams.end()) == streams.end(),
         "client streams are distinct across seeds");

  // Root [0,100] with children [10,30], [20,40] (overlapping) and [90,120]
  // (clipped to 90..100); [12,18] is a child of [10,30]. Two tracers check
  // that merge() re-bases parent indices.
  const Clock::time_point t = Clock::now();
  const auto at = [&](int us) { return t + std::chrono::microseconds(us); };
  Tracer a(t), b(t);
  b.record(SpanName::Request, at(0), at(5), 9);  // unrelated root
  const std::int32_t root = a.record(SpanName::Replay, at(0), at(100), 1);
  const std::int32_t first =
      a.record(SpanName::Engine, at(10), at(30), 1, root);
  a.record(SpanName::Sweep, at(20), at(40), 1, root);
  a.record(SpanName::Degrade, at(90), at(120), 1, root);
  a.record(SpanName::Key, at(12), at(18), 1, first);
  const Tracer* tracers[] = {&b, &a};
  const std::vector<Span> spans = merge(tracers);
  expect(spans.size() == 6 && spans[2].parent == 1 && spans[5].parent == 2,
         "merge re-bases parents");
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const std::int64_t us = 1000;
  expect(self[0] == 5 * us, "leaf self time is its duration");
  expect(self[1] == 60 * us, "root self time: 100 - union(10..40, 90..100)");
  expect(self[2] == 14 * us, "child self time: 20 - 6");
  expect(self[4] == 30 * us, "child self time is not clipped by its parent");
  std::cout << (failures == 0 ? "selftest: ok" : "selftest: FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: fpm_perf --workload NAME --seconds S [--seed N] "
               "[--trace 0|1] [--spans-out FILE]\n"
               "       fpm_perf --selftest\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--selftest") return selftest();
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed =
            static_cast<std::uint64_t>(util::parse_int64(value(), arg));
      } else if (arg == "--seconds") {
        options.seconds = util::parse_double(value(), arg);
      } else if (arg == "--trace") {
        options.trace = util::parse_int64(value(), arg) != 0;
      } else if (arg == "--spans-out") {
        options.spans_out = value();
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "fpm_perf: " << e.what() << "\n";
    return usage();
  }
  if (!(options.seconds > 0.0)) return usage();
  for (const Workload& w : workloads()) {
    if (options.workload != w.name) continue;
    RunResult result;
    try {
      result = w.run(options);
    } catch (const std::exception& e) {
      result.problem(std::string("run aborted: ") + e.what());
    }
    print_result(options, result);
    for (const std::string& p : result.problems)
      std::cerr << "fpm_perf " << options.workload << ": " << p << "\n";
    for (const std::string& p : result.invalid)
      std::cerr << "fpm_perf " << options.workload << ": invalid: " << p
                << "\n";
    return result.correct() ? 0 : 1;
  }
  std::cerr << "fpm_perf: unknown workload '" << options.workload << "'\n";
  return usage();
}
