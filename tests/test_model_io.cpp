// Tests for model persistence: round-tripping curves and bands through the
// fpm-model text format, and parse-error reporting.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/builder.hpp"
#include "core/model_io.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

NamedModel sample_band_model() {
  NamedModel m;
  m.name = "X8-MatrixMult";
  m.epsilon = 0.05;
  m.lower = {{100.0, 90.0}, {10000.0, 45.0}, {1e6, 2.0}};
  m.upper = {{100.0, 110.0}, {10000.0, 55.0}, {1e6, 3.0}};
  return m;
}

TEST(ModelIo, RoundTripsBandExactly) {
  const std::vector<NamedModel> models{sample_band_model()};
  std::stringstream ss;
  save_models(ss, models);
  const std::vector<NamedModel> loaded = load_models(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "X8-MatrixMult");
  EXPECT_DOUBLE_EQ(loaded[0].epsilon, 0.05);
  ASSERT_EQ(loaded[0].lower.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(loaded[0].lower[i].size, models[0].lower[i].size);
    EXPECT_DOUBLE_EQ(loaded[0].lower[i].speed, models[0].lower[i].speed);
    EXPECT_DOUBLE_EQ(loaded[0].upper[i].speed, models[0].upper[i].speed);
  }
}

TEST(ModelIo, RoundTripsMultipleModels) {
  std::vector<NamedModel> models{sample_band_model(), sample_band_model()};
  models[1].name = "second";
  std::stringstream ss;
  save_models(ss, models);
  const auto loaded = load_models(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1].name, "second");
}

TEST(ModelIo, CurveAccessorBuildsCentre) {
  const NamedModel m = sample_band_model();
  const PiecewiseLinearSpeed c = m.curve();
  EXPECT_DOUBLE_EQ(c.speed(100.0), 100.0);
  EXPECT_DOUBLE_EQ(c.speed(10000.0), 50.0);
}

TEST(ModelIo, MakeNamedModelFromCurve) {
  const PiecewiseLinearSpeed curve({{100.0, 200.0}, {1000.0, 100.0}});
  const NamedModel m = make_named_model("c", curve, 0.1);
  EXPECT_EQ(m.lower.size(), m.upper.size());
  EXPECT_DOUBLE_EQ(m.lower[0].speed, m.upper[0].speed);
  const PiecewiseLinearSpeed back = m.curve();
  EXPECT_DOUBLE_EQ(back.speed(500.0), curve.speed(500.0));
}

TEST(ModelIo, RoundTripsBuilderOutput) {
  // End-to-end: trisection-built band -> save -> load -> same curve.
  const auto e = fpm::test::stepped_ensemble(1);
  struct Src final : MeasurementSource {
    const SpeedFunction* f;
    double measure(double size) override { return f->speed(size); }
  } src;
  src.f = e.owned[0].get();
  BuilderOptions opts;
  opts.min_size = 100.0;
  opts.max_size = e.owned[0]->max_size();
  const BuiltModel built = build_speed_band(src, opts);
  const NamedModel named = make_named_model("built", built.band, opts.epsilon);

  std::stringstream ss;
  save_models(ss, {named});
  const auto loaded = load_models(ss);
  ASSERT_EQ(loaded.size(), 1u);
  const PiecewiseLinearSpeed a = built.band.center();
  const PiecewiseLinearSpeed b = loaded[0].curve();
  for (double x = 200.0; x < opts.max_size; x *= 2.3)
    EXPECT_NEAR(a.speed(x), b.speed(x), 1e-9 * a.speed(x)) << x;
}

TEST(ModelIo, FileRoundTrip) {
  // Per process: two suites running at once must not share the file.
  const std::string path =
      "/tmp/fpm_model_io_test." + std::to_string(getpid()) + ".fpm";
  save_models_file(path, {sample_band_model()});
  const auto loaded = load_models_file(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "X8-MatrixMult");
  std::remove(path.c_str());
}

TEST(ModelIo, FileErrorsThrow) {
  EXPECT_THROW(load_models_file("/nonexistent/dir/m.fpm"),
               std::runtime_error);
  EXPECT_THROW(save_models_file("/nonexistent/dir/m.fpm", {}),
               std::runtime_error);
}

TEST(ModelIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "# header\n\nmodel a\n# inner comment\nband 0.05\npoint 10 5 6\nend\n");
  const auto loaded = load_models(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "a");
}

TEST(ModelIo, ParseErrorsCarryLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::stringstream ss(text);
    try {
      load_models(ss);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  };
  expect_error("point 1 2 3\n", "outside a model");
  expect_error("model a\nmodel b\n", "nested");
  expect_error("model a\npoint 10 5 6\n", "unterminated");
  expect_error("model a\npoint -1 5 6\nend\n", "size must be > 0");
  expect_error("model a\npoint 10 6 5\nend\n", "lower <= upper");
  expect_error("model a\npoint 10 5 6\npoint 5 4 5\nend\n",
               "strictly increasing");
  expect_error("model a\nend\n", "no points");
  expect_error("bogus\n", "unknown keyword");
}

TEST(ModelIo, RejectsNonFiniteAndNegativeValues) {
  // NaN compares false against every range check, so without explicit
  // isfinite guards these would parse "successfully" and poison the
  // partitioners downstream.
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::stringstream ss(text);
    try {
      load_models(ss);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find(fragment), std::string::npos)
          << err.what();
    }
  };
  // Whether "nan"/"inf" fail at extraction (libstdc++) or at the explicit
  // isfinite guard (platforms whose num_get accepts them), the line must
  // be rejected either way.
  expect_error("model a\nband nan\npoint 10 5 6\nend\n", "finite");
  expect_error("model a\nband inf\npoint 10 5 6\nend\n", "finite");
  expect_error("model a\nband -0.1\npoint 10 5 6\nend\n", "finite");
  expect_error("model a\npoint nan 5 6\nend\n", "point");
  expect_error("model a\npoint 10 nan 6\nend\n", "point");
  expect_error("model a\npoint 10 5 nan\nend\n", "point");
  expect_error("model a\npoint 10 5 inf\nend\n", "point");
  expect_error("model a\npoint 10 -2 6\nend\n", "negative");
}

TEST(ModelIo, RejectsBadNamesOnSave) {
  NamedModel m = sample_band_model();
  m.name = "has space";
  std::stringstream ss;
  EXPECT_THROW(save_models(ss, {m}), std::runtime_error);
  m.name = "";
  EXPECT_THROW(save_models(ss, {m}), std::runtime_error);
}

}  // namespace
}  // namespace fpm::core
