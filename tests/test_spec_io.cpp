// Tests for cluster-definition persistence: round trips of the Table
// presets through the fpm-cluster format, curve equivalence after reload,
// and parse-error reporting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <sstream>

#include "simcluster/presets.hpp"
#include "simcluster/spec_io.hpp"

namespace fpm::sim {
namespace {

TEST(SpecIo, PatternNamesRoundTrip) {
  for (const MemoryPattern p :
       {MemoryPattern::Efficient, MemoryPattern::Moderate,
        MemoryPattern::Inefficient})
    EXPECT_EQ(pattern_from_string(to_string(p)), p);
  EXPECT_THROW(pattern_from_string("bogus"), std::runtime_error);
}

TEST(SpecIo, Table2RoundTripPreservesEverything) {
  const auto original = table2_machines();
  std::stringstream file;
  save_cluster(file, original);
  const auto loaded = load_cluster(file);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const SimulatedMachine& a = original[i];
    const SimulatedMachine& b = loaded[i];
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.spec.os, b.spec.os);
    EXPECT_EQ(a.spec.arch, b.spec.arch);
    EXPECT_DOUBLE_EQ(a.spec.cpu_mhz, b.spec.cpu_mhz);
    EXPECT_EQ(a.spec.free_memory_kb, b.spec.free_memory_kb);
    EXPECT_EQ(a.spec.cache_kb, b.spec.cache_kb);
    EXPECT_DOUBLE_EQ(a.fluctuation.width_small, b.fluctuation.width_small);
    ASSERT_EQ(a.apps.size(), b.apps.size());
    for (const auto& [name, curve] : a.apps) {
      ASSERT_EQ(b.apps.count(name), 1u) << name;
      const MachineSpeed& ca = *curve;
      const MachineSpeed& cb = *b.apps.at(name);
      EXPECT_DOUBLE_EQ(ca.paging_onset(), cb.paging_onset()) << name;
      EXPECT_DOUBLE_EQ(ca.peak_speed(), cb.peak_speed()) << name;
      // Curves must agree pointwise (same synthesis inputs).
      for (double x = 1e4; x < ca.max_size(); x *= 3.7)
        EXPECT_DOUBLE_EQ(ca.speed(x), cb.speed(x)) << name << " x=" << x;
    }
  }
}

TEST(SpecIo, ReloadedClusterSimulatesIdentically) {
  std::stringstream file;
  save_cluster(file, table2_machines());
  SimulatedCluster reloaded(load_cluster(file), 42);
  SimulatedCluster direct(table2_machines(), 42);
  for (int i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(reloaded.measure(3, kMatMul, 2e6),
                     direct.measure(3, kMatMul, 2e6));
}

TEST(SpecIo, FileRoundTrip) {
  // Per process: two suites running at once must not share the file.
  const std::string path =
      "/tmp/fpm_cluster_io_test." + std::to_string(getpid()) + ".cluster";
  save_cluster_file(path, table1_machines());
  const auto loaded = load_cluster_file(path);
  EXPECT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded[2].spec.name, "Comp3");
  std::remove(path.c_str());
  EXPECT_THROW(load_cluster_file("/nonexistent/x.cluster"),
               std::runtime_error);
}

TEST(SpecIo, ParseErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::stringstream ss(text);
    try {
      load_cluster(ss);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  };
  expect_error("os Linux\n", "outside machine");
  expect_error("machine a\nmachine b\n", "nested");
  expect_error("machine a\nend\n", "lacks fluctuation");
  expect_error(
      "machine a\ncpu_mhz 100\nmain_kb 10\nfree_kb 5\ncache_kb 1\n"
      "fluctuation 0.1 0.05 0\nend\n",
      "has no apps");
  expect_error("machine a\nbogus 1\nend\n", "unknown keyword");
  expect_error("machine a\ncpu_mhz nope\n", "bad cpu_mhz");
  expect_error("machine a\n", "unterminated");
  // Invalid synthesized machine (onset below cache) surfaces as a parse
  // error with the line number of 'end'.
  expect_error(
      "machine a\nos L\narch x\ncpu_mhz 100\nmain_kb 1000\nfree_kb 500\n"
      "cache_kb 1024\nfluctuation 0.1 0.05 0\n"
      "app T moderate 8 0.5 1 10\nend\n",
      "invalid machine/app");
}

TEST(SpecIo, PolicyLineRoundTrips) {
  ClusterSpec spec;
  spec.machines = table1_machines();
  spec.policy = core::parse_policy(
      core::kAlgorithmCombined,
      std::vector<std::string>{"stall_window", "7"});
  spec.has_policy = true;
  std::stringstream file;
  save_cluster_spec(file, spec);
  EXPECT_NE(file.str().find("policy combined stall_window 7"),
            std::string::npos);
  const ClusterSpec loaded = load_cluster_spec(file);
  EXPECT_TRUE(loaded.has_policy);
  EXPECT_EQ(core::format_policy(loaded.policy), "combined stall_window 7");
  EXPECT_EQ(loaded.machines.size(), spec.machines.size());
}

TEST(SpecIo, MissingPolicyLineMeansDefaultPolicy) {
  std::stringstream file;
  save_cluster(file, table1_machines());
  EXPECT_EQ(file.str().find("policy"), std::string::npos);
  const ClusterSpec loaded = load_cluster_spec(file);
  EXPECT_FALSE(loaded.has_policy);
  EXPECT_EQ(loaded.policy.algorithm, core::kAlgorithmCombined);
  EXPECT_EQ(core::format_policy(loaded.policy), "combined");
}

TEST(SpecIo, PolicyLineErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::stringstream ss(text);
    try {
      load_cluster_spec(ss);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  };
  expect_error("policy annealing\n", "unknown algorithm");
  expect_error("policy combined stall_window\n", "missing its value");
  expect_error("policy combined cooling_rate 3\n", "has no key");
  expect_error("policy\n", "missing policy algorithm");
  expect_error("policy combined\npolicy basic\n", "duplicate 'policy'");
  expect_error("machine a\npolicy combined\n", "'policy' inside machine");
  expect_error("policy interpolation safeguard_margin nan\n",
               "'safeguard_margin' expects a value in [0, 0.5]");
  expect_error("policy interpolation safeguard_margin -3\n",
               "'safeguard_margin' expects a value in [0, 0.5]");
  expect_error("policy combined stall_window 0\n",
               "'stall_window' expects a value in [1, ");
  expect_error("policy basic max_iterations -1\n",
               "'max_iterations' expects a value in [0, ");
}

TEST(SpecIo, SaveRejectsBadNames) {
  auto ms = table1_machines();
  ms[0].spec.name = "has space";
  std::stringstream ss;
  EXPECT_THROW(save_cluster(ss, ms), std::runtime_error);
}

TEST(SpecIo, HandWrittenClusterWorksEndToEnd) {
  std::stringstream file(R"(# my lab
machine big
os Linux 6.1
arch x86_64
cpu_mhz 3000
main_kb 16000000
free_kb 8000000
cache_kb 32768
fluctuation 0.1 0.05 0
app Solver moderate 8 0.6 1.5 500000000
end
machine small
os Linux 6.1
arch arm64
cpu_mhz 1500
main_kb 4000000
free_kb 1000000
cache_kb 4096
fluctuation 0.3 0.06 0
app Solver moderate 8 0.6 1.5 60000000
end
)");
  SimulatedCluster cluster(load_cluster(file), 7);
  ASSERT_EQ(cluster.size(), 2u);
  // The big machine is faster at any shared size.
  EXPECT_GT(cluster.ground_truth(0, "Solver").speed(1e7),
            cluster.ground_truth(1, "Solver").speed(1e7));
  // And models can be built and used directly.
  const ClusterModels models = build_cluster_models(cluster, "Solver");
  EXPECT_EQ(models.curves.size(), 2u);
}

}  // namespace
}  // namespace fpm::sim
