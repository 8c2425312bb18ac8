#include "harness/bench_util.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/plane_sweep.h"
#include "data/generators.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace bench {
namespace {

TEST(BenchArgsTest, Defaults) {
  char prog[] = "bench";
  char* argv[] = {prog};
  const BenchArgs args = BenchArgs::Parse(1, argv);
  EXPECT_FALSE(args.full);
  EXPECT_FALSE(args.quick);
  EXPECT_DOUBLE_EQ(args.EffectiveScale(0.1), 0.1);
}

TEST(BenchArgsTest, ScaleFlag) {
  char prog[] = "bench";
  char flag[] = "--scale=0.5";
  char* argv[] = {prog, flag};
  const BenchArgs args = BenchArgs::Parse(2, argv);
  EXPECT_DOUBLE_EQ(args.EffectiveScale(0.1), 0.5);
}

TEST(BenchArgsTest, FullOverridesScale) {
  char prog[] = "bench";
  char f1[] = "--scale=0.5";
  char f2[] = "--full";
  char* argv[] = {prog, f1, f2};
  const BenchArgs args = BenchArgs::Parse(3, argv);
  EXPECT_DOUBLE_EQ(args.EffectiveScale(0.1), 1.0);
}

TEST(BenchArgsTest, QuickQuartersTheDefault) {
  char prog[] = "bench";
  char flag[] = "--quick";
  char* argv[] = {prog, flag};
  const BenchArgs args = BenchArgs::Parse(2, argv);
  EXPECT_DOUBLE_EQ(args.EffectiveScale(0.2), 0.05);
}

TEST(ScaledTest, RoundsAndFloors) {
  EXPECT_EQ(Scaled(1000, 0.5), 500u);
  EXPECT_EQ(Scaled(1000, 0.0004), 1u);
  EXPECT_EQ(Scaled(1000, 0.0004, 100), 100u);
  EXPECT_EQ(Scaled(53145, 1.0), 53145u);
}

TEST(ScaledBufferTest, PreservesRatio) {
  // Paper: B = 100 of 1175 pages. With 470 actual pages the same ratio
  // gives 40.
  EXPECT_EQ(ScaledBuffer(100, 1175, 470), 40u);
  EXPECT_EQ(ScaledBuffer(100, 1175, 1175), 100u);
  EXPECT_EQ(ScaledBuffer(4, 1000, 10), 4u);  // Floor of 4.
}

TEST(SequencePageBytesTest, ScalesPageSizeDown) {
  EXPECT_EQ(SequencePageBytes(1.0), 4096u);
  EXPECT_EQ(SequencePageBytes(0.6), 4096u);
  EXPECT_EQ(SequencePageBytes(0.05), 1024u);
}

TEST(PaperIoModelTest, UniformCostPerPage) {
  const DiskModel model = PaperIoModel();
  IoStats stats;
  stats.pages_read = 100;
  stats.seeks = 37;  // Seeks are free under the paper's accounting.
  EXPECT_DOUBLE_EQ(stats.ModeledSeconds(model), 1.0);
}

TEST(DatasetBuildersTest, CardinalitiesMatchPaperAtFullScale) {
  EXPECT_EQ(LBeachData(0.01).count(), Scaled(53145, 0.01, 500));
  EXPECT_EQ(MCountyData(0.01).count(), Scaled(39231, 0.01, 500));
  EXPECT_EQ(LandsatSplit(0.01, 0).dims, 60u);
}

TEST(DatasetBuildersTest, SplitsAreDistinct) {
  const VectorData a = LandsatSplit(0.01, 0);
  const VectorData b = LandsatSplit(0.01, 1);
  EXPECT_NE(a.values, b.values);
}

TEST(CalibratePageEpsTest, HitsTargetSelectivity) {
  SimulatedDisk disk;
  VectorDataset::Options layout;
  layout.page_size_bytes = 256;
  auto r = VectorDataset::Build(&disk, "r", GenRoadNetwork(2000, 3),
                                layout);
  auto s = VectorDataset::Build(&disk, "s", GenRoadNetwork(1500, 4),
                                layout);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  // Overlapping page MBRs put a floor under the achievable selectivity
  // (MINDIST == 0 pairs are marked at any ε ≥ 0); calibration can only
  // hit targets at or above that floor.
  const PredictionMatrix floor_matrix = BuildPredictionMatrixFlat(
      r->page_mbrs(), s->page_mbrs(), 1e-9, Norm::kL2, nullptr);
  const double floor = floor_matrix.Selectivity();
  for (double target : {0.05, 0.10, 0.30}) {
    const double eps =
        CalibratePageEps(*r, *s, target, Norm::kL2, 7);
    const PredictionMatrix matrix = BuildPredictionMatrixFlat(
        r->page_mbrs(), s->page_mbrs(), eps, Norm::kL2, nullptr);
    const double expected = std::max(target, floor);
    EXPECT_NEAR(matrix.Selectivity(), expected, expected * 0.5 + 0.02)
        << "target " << target << " floor " << floor;
    // Below the floor, ε is the smallest positive page MINDIST: it marks
    // the overlapping pairs and at least one more.
    if (target < floor) {
      EXPECT_GT(matrix.MarkedCount(), floor_matrix.MarkedCount())
          << "target " << target;
    }
  }
}

TEST(CalibratePageEpsTest, MonotoneInTarget) {
  SimulatedDisk disk;
  VectorDataset::Options layout;
  layout.page_size_bytes = 256;
  auto r = VectorDataset::Build(&disk, "r", GenRoadNetwork(1000, 5),
                                layout);
  ASSERT_TRUE(r.ok());
  const double lo = CalibratePageEps(*r, *r, 0.02, Norm::kL2, 7);
  const double hi = CalibratePageEps(*r, *r, 0.40, Norm::kL2, 7);
  EXPECT_LE(lo, hi);
}

TEST(PrintTableRowTest, PrintsLabelThenOneCellPerColumn) {
  PrintTableHeader("shape", {"SC io(s)", "CC io(s)"});
  testing::internal::CaptureStdout();
  PrintTableRow({"B=4", "1.00", "2.00"});
  const std::string row = testing::internal::GetCapturedStdout();
  EXPECT_EQ(row.find("B=4"), 0u);
  EXPECT_NE(row.find("2.00"), std::string::npos);
}

TEST(PrintTableRowDeathTest, RejectsRowsThatDoNotMatchTheHeader) {
  // A row's first cell is its label, never a column: a header that also
  // lists the label as a column would shift every JSON key by one and
  // drop the last column.
  PrintTableHeader("shape", {"B", "SC io(s)", "CC io(s)"});
  EXPECT_DEATH(PrintTableRow({"B=4", "1.00", "2.00"}),
               "one label plus one cell per column");
  PrintTableHeader("shape", {"SC io(s)"});
  EXPECT_DEATH(PrintTableRow({"B=4", "1.00", "2.00"}),
               "one label plus one cell per column");
  EXPECT_DEATH(PrintTableRow({}), "one label plus one cell per column");
}

}  // namespace
}  // namespace bench
}  // namespace pmjoin
