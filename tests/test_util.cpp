// Unit tests for the util substrate: RNG determinism and distribution
// sanity, statistics helpers, the matrix container, and table formatting.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "util/cli.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace fpm::util {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(0, 7);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 7);
    saw_lo |= v == 0;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRightMoments) {
  Rng rng(13);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.1);
  EXPECT_NEAR(stddev(xs), 2.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(42);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (c1() == c2());
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsReproducible) {
  Rng p1(42), p2(42);
  Rng a = p1.split();
  Rng b = p2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), median(xs));
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
  // Out-of-range quantiles clamp rather than read out of bounds.
  EXPECT_DOUBLE_EQ(percentile(xs, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 250.0), 4.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, FitLineRecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit f = fit_line(xs, ys);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(100.0, 110.0), 10.0 / 110.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean(std::vector<double>{1.0, 4.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_EQ(linspace(2.0, 9.0, 1), std::vector<double>{2.0});
}

TEST(Matrix, IndexingAndRows) {
  MatrixD m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.0);
  EXPECT_DOUBLE_EQ(m.flat()[0], 1.0);
}

TEST(Matrix, SliceAndPasteRoundTrip) {
  MatrixD m(4, 2);
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 2; ++c) m(r, c) = static_cast<double>(r * 2 + c);
  const MatrixD slice = m.slice_rows(1, 2);
  EXPECT_EQ(slice.rows(), 2u);
  EXPECT_DOUBLE_EQ(slice(0, 1), 3.0);
  MatrixD dst(4, 2);
  dst.paste_rows(1, slice);
  EXPECT_DOUBLE_EQ(dst(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(dst(0, 0), 0.0);
}

TEST(Matrix, Transpose) {
  MatrixD m(2, 3);
  m(0, 2) = 7.0;
  const MatrixD t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 0), 7.0);
}

TEST(Matrix, MaxAbsDiff) {
  MatrixD a(2, 2), b(2, 2);
  a(1, 1) = 3.0;
  b(1, 1) = 5.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.5);
}

TEST(Table, AlignedOutputContainsAllCells) {
  Table t("Demo", {"col_a", "b"});
  t.add_row({"1", "2.5"});
  t.add_row({"long-cell", "x"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("col_a"), std::string::npos);
  EXPECT_NE(s.find("long-cell"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table t("", {"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(static_cast<std::size_t>(42)), "42");
}

TEST(CliArgs, ParsesFlagsAndSwitchesInAnyOrder) {
  const char* argv[] = {"prog", "cmd",  "--n",   "100",
                        "--csv", "--models", "x.fpm"};
  const CliArgs args(7, argv, {"--csv"});
  EXPECT_EQ(args.require("--n"), "100");
  EXPECT_EQ(args.require("--models"), "x.fpm");
  EXPECT_TRUE(args.flag("--csv"));
  EXPECT_FALSE(args.flag("--other"));
  EXPECT_EQ(args.get("--other"), std::nullopt);
}

TEST(CliArgs, NumberParsingAndFallback) {
  const char* argv[] = {"prog", "cmd", "--epsilon", "0.25"};
  const CliArgs args(4, argv);
  EXPECT_DOUBLE_EQ(args.number("--epsilon", 0.1), 0.25);
  EXPECT_DOUBLE_EQ(args.number("--missing", 0.1), 0.1);
}

TEST(CliArgs, RejectsMalformedInput) {
  const char* no_dash[] = {"prog", "cmd", "value"};
  EXPECT_THROW(CliArgs(3, no_dash), std::invalid_argument);
  const char* missing_value[] = {"prog", "cmd", "--n"};
  EXPECT_THROW(CliArgs(3, missing_value), std::invalid_argument);
  const char* bad_number[] = {"prog", "cmd", "--n", "12abc"};
  const CliArgs args(4, bad_number);
  EXPECT_THROW(args.number("--n", 0.0), std::invalid_argument);
  EXPECT_THROW(args.require("--missing"), std::invalid_argument);
}

TEST(ParseInt64, AcceptsPlainNonNegativeIntegers) {
  EXPECT_EQ(parse_int64("0", "--n"), 0);
  EXPECT_EQ(parse_int64("100", "--n"), 100);
  EXPECT_EQ(parse_int64("9223372036854775807", "--n"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(ParseInt64, RejectsGarbageFractionsNegativesAndOverflow) {
  // The regression this guards: --n used to go through stod + truncation,
  // silently accepting "100abc" (as 100) and "12.7" (as 12).
  EXPECT_THROW(parse_int64("100abc", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("12.7", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("1e6", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("-5", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("abc", "--n"), std::invalid_argument);
  EXPECT_THROW(parse_int64("9223372036854775808", "--n"),
               std::invalid_argument);
  try {
    parse_int64("12.7", "--repeat");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("--repeat"), std::string::npos);
  }
}

TEST(ParseDouble, AcceptsFiniteLiterals) {
  EXPECT_DOUBLE_EQ(parse_double("0.25", "--epsilon"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-3", "--shift"), -3.0);
  EXPECT_DOUBLE_EQ(parse_double("1e6", "--at"), 1e6);
}

TEST(ParseDouble, RejectsGarbageAndNonFiniteValues) {
  EXPECT_THROW(parse_double("1.5x", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("abc", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("nan", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("inf", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("-inf", "--at"), std::invalid_argument);
  EXPECT_THROW(parse_double("1e999", "--at"), std::invalid_argument);
  try {
    parse_double("0.5garbage", "--single-number");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("--single-number"),
              std::string::npos);
  }
}

TEST(CliArgs, NumberParsingIsStrict) {
  const char* argv[] = {"prog", "cmd", "--epsilon", "0.25nonsense"};
  const CliArgs args(4, argv);
  EXPECT_THROW(args.number("--epsilon", 0.1), std::invalid_argument);
}

TEST(CliArgs, IntegerParsingStrictWithFallback) {
  const char* argv[] = {"prog", "cmd", "--repeat", "250", "--n", "12.7"};
  const CliArgs args(6, argv);
  EXPECT_EQ(args.integer("--repeat", 1), 250);
  EXPECT_EQ(args.integer("--missing", 7), 7);
  EXPECT_THROW(args.integer("--n", 1), std::invalid_argument);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GT(t.micros(), t.seconds());  // unit sanity
}

}  // namespace
}  // namespace fpm::util
