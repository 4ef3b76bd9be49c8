// Tests for the 2-D rectangular partitioning extension: exact tiling,
// area proportionality, column-count search, and the half-perimeter
// objective.
#include <gtest/gtest.h>

#include "core/combined.hpp"
#include "core/rect2d.hpp"
#include "helpers.hpp"

namespace fpm::core {
namespace {

TEST(Rect2d, SingleProcessorTakesWholeGrid) {
  const auto e = fpm::test::constant_ensemble(1);
  const RectPartition part = partition_rectangles(e.list(), 100, 200);
  ASSERT_EQ(part.rects.size(), 1u);
  EXPECT_EQ(part.rects[0].rows, 100);
  EXPECT_EQ(part.rects[0].cols, 200);
  EXPECT_TRUE(is_exact_tiling(part));
}

class Rect2dSweep : public ::testing::TestWithParam<int> {};

TEST_P(Rect2dSweep, TilesExactlyForEveryFamily) {
  const int p = GetParam();
  for (const auto& e : fpm::test::all_ensembles(p)) {
    for (const auto& [rows, cols] :
         {std::pair<std::int64_t, std::int64_t>{64, 64},
          {100, 37},
          {1, 1000},
          {513, 511}}) {
      const RectPartition part = partition_rectangles(e.list(), rows, cols);
      EXPECT_TRUE(is_exact_tiling(part))
          << e.name << " " << rows << "x" << cols << " p=" << p;
      EXPECT_EQ(part.rects.size(), static_cast<std::size_t>(p));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, Rect2dSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 12),
                         [](const auto& suffix) {
                           return "p" + std::to_string(suffix.param);
                         });

TEST(Rect2d, AreasTrackOptimalShares) {
  const auto e = fpm::test::power_ensemble(4);
  const std::int64_t rows = 512, cols = 512;
  const RectPartition part = partition_rectangles(e.list(), rows, cols);
  const Distribution opt = partition_combined(e.list(), rows * cols).distribution;
  for (std::size_t i = 0; i < 4; ++i) {
    const double expected = static_cast<double>(opt.counts[i]);
    const double got = static_cast<double>(part.rects[i].area());
    // Integer tiling distorts areas; stay within 15% on a 512x512 grid.
    EXPECT_NEAR(got, expected, 0.15 * expected + 600.0) << i;
  }
}

TEST(Rect2d, EqualSpeedsGiveBalancedRectangles) {
  std::vector<std::shared_ptr<const SpeedFunction>> owned;
  for (int i = 0; i < 4; ++i)
    owned.push_back(std::make_shared<ConstantSpeed>(100.0, 1e9));
  const SpeedList speeds = make_speed_list(owned);
  const RectPartition part = partition_rectangles(speeds, 100, 100);
  EXPECT_TRUE(is_exact_tiling(part));
  for (const Rect& r : part.rects) EXPECT_EQ(r.area(), 2500);
  // Four equal processors should form a 2x2 arrangement, beating strips on
  // the communication proxy: half-perimeter 4*(50+50) = 400 vs 4*(25+100).
  EXPECT_EQ(part.columns, 2u);
  EXPECT_EQ(part.total_half_perimeter(), 400);
}

TEST(Rect2d, ColumnSearchBeatsForcedStrips) {
  const auto e = fpm::test::linear_ensemble(9);
  Rect2dOptions strips;
  strips.force_columns = 1;  // horizontal slabs only
  const RectPartition best = partition_rectangles(e.list(), 300, 300);
  const RectPartition slab = partition_rectangles(e.list(), 300, 300, strips);
  EXPECT_TRUE(is_exact_tiling(best));
  EXPECT_TRUE(is_exact_tiling(slab));
  EXPECT_LE(best.total_half_perimeter(), slab.total_half_perimeter());
}

TEST(Rect2d, ForcedColumnCountIsHonoured) {
  const auto e = fpm::test::constant_ensemble(6);
  Rect2dOptions opts;
  opts.force_columns = 3;
  const RectPartition part = partition_rectangles(e.list(), 120, 120, opts);
  EXPECT_EQ(part.columns, 3u);
  EXPECT_TRUE(is_exact_tiling(part));
}

TEST(Rect2d, RejectsBadArguments) {
  const auto e = fpm::test::constant_ensemble(2);
  EXPECT_THROW(partition_rectangles({}, 10, 10), std::invalid_argument);
  EXPECT_THROW(partition_rectangles(e.list(), 0, 10), std::invalid_argument);
  Rect2dOptions opts;
  opts.force_columns = 5;
  EXPECT_THROW(partition_rectangles(e.list(), 10, 10, opts),
               std::invalid_argument);
}

TEST(Rect2d, TinyGridsWithManyProcessors) {
  // More processors than grid cells in one dimension: some rectangles must
  // come out empty, but the tiling stays exact.
  const auto e = fpm::test::constant_ensemble(8);
  const RectPartition part = partition_rectangles(e.list(), 3, 3);
  EXPECT_TRUE(is_exact_tiling(part));
  std::int64_t covered = 0;
  for (const Rect& r : part.rects) covered += r.area();
  EXPECT_EQ(covered, 9);
}

TEST(Rect2d, IsExactTilingDetectsViolations) {
  RectPartition bad;
  bad.grid_rows = 10;
  bad.grid_cols = 10;
  bad.rects = {{0, 0, 10, 6}, {0, 5, 10, 5}};  // overlap at column 5
  EXPECT_FALSE(is_exact_tiling(bad));
  bad.rects = {{0, 0, 10, 4}, {0, 5, 10, 5}};  // gap at column 4
  EXPECT_FALSE(is_exact_tiling(bad));
  bad.rects = {{0, 0, 10, 5}, {0, 5, 11, 5}};  // out of bounds
  EXPECT_FALSE(is_exact_tiling(bad));
  bad.rects = {{0, 0, 10, 5}, {0, 5, 10, 5}};  // correct
  EXPECT_TRUE(is_exact_tiling(bad));
}

TEST(Rect2d, FasterProcessorGetsBiggerRectangle) {
  const auto e = fpm::test::constant_ensemble(3);  // speeds 100,150,200
  const RectPartition part = partition_rectangles(e.list(), 200, 200);
  EXPECT_LT(part.rects[0].area(), part.rects[2].area());
}

}  // namespace
}  // namespace fpm::core
