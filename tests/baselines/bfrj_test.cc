#include "baselines/bfrj.h"

#include <gtest/gtest.h>

#include "io/simulated_disk.h"
#include "join_test_util.h"

namespace pmjoin {
namespace {

using testing_util::SmallVectorJoin;

TEST(BfrjTest, MatchesReferenceJoin) {
  SmallVectorJoin fixture(250, 200, 3, 0.06);
  BufferPool pool(&fixture.disk(), 16);
  CollectingSink sink;
  ASSERT_TRUE(BfrjJoin(fixture.r().tree(), fixture.s().tree(),
                       fixture.input(), fixture.eps(), fixture.norm(),
                       /*page_size_bytes=*/64, &fixture.disk(), &pool,
                       &sink, nullptr)
                  .ok());
  EXPECT_EQ(sink.Sorted(), fixture.Expected());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST(BfrjTest, RequiresAttachedNodeFiles) {
  SmallVectorJoin fixture(50, 50, 5, 0.05);
  RStarTree detached(2);  // No node file.
  BufferPool pool(&fixture.disk(), 8);
  CountingSink sink;
  EXPECT_FALSE(BfrjJoin(detached, fixture.s().tree(), fixture.input(), 0.05,
                        Norm::kL2, 64, &fixture.disk(), &pool, &sink,
                        nullptr)
                   .ok());
}

TEST(BfrjTest, ChargesNodeIo) {
  SmallVectorJoin fixture(300, 300, 7, 0.04);
  BufferPool pool(&fixture.disk(), 16);
  CountingSink sink;
  const IoStats before = fixture.disk().stats();
  ASSERT_TRUE(BfrjJoin(fixture.r().tree(), fixture.s().tree(),
                       fixture.input(), fixture.eps(), fixture.norm(), 64,
                       &fixture.disk(), &pool, &sink, nullptr)
                  .ok());
  const IoStats delta = fixture.disk().stats().Delta(before);
  // Node pages of both trees are read in addition to data pages.
  EXPECT_GT(delta.pages_read,
            uint64_t(fixture.matrix().MarkedRows().size()));
}

TEST(BfrjTest, DisjointDatasetsReadNothing) {
  // Two far-apart box sets: the root test prunes everything.
  SimulatedDisk disk;
  std::vector<RStarTree::Entry> left, right;
  for (uint32_t i = 0; i < 50; ++i) {
    const float x = i * 0.01f;
    left.push_back(RStarTree::Entry{
        Mbr::FromBounds({x, 0.0f}, {x + 0.005f, 0.1f}), i});
    right.push_back(RStarTree::Entry{
        Mbr::FromBounds({x + 100.0f, 0.0f}, {x + 100.005f, 0.1f}), i});
  }
  RStarTree rt = RStarTree::BulkLoadStr(2, left);
  RStarTree st = RStarTree::BulkLoadStr(2, right);
  rt.AttachFile(&disk, "rt");
  st.AttachFile(&disk, "st");

  class NullJoiner : public PagePairJoiner {
   public:
    void JoinPages(uint32_t, uint32_t, PairSink*, OpCounters*) override {}
    void ChargeScanned(uint32_t, uint32_t, OpCounters*) const override {}
  };
  NullJoiner joiner;
  JoinInput input;
  input.r_file = disk.CreateFile("r", 50);
  input.s_file = disk.CreateFile("s", 50);
  input.r_pages = 50;
  input.s_pages = 50;
  input.joiner = &joiner;

  BufferPool pool(&disk, 8);
  CountingSink sink;
  ASSERT_TRUE(BfrjJoin(rt, st, input, 0.01, Norm::kL2, 64, &disk, &pool,
                       &sink, nullptr)
                  .ok());
  EXPECT_EQ(disk.stats().pages_read, 0u);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(BfrjTest, PeakIntermediateGrowsWithSelectivity) {
  SmallVectorJoin fixture(400, 400, 9, 0.02);
  const uint64_t tight = BfrjPeakIntermediatePages(
      fixture.r().tree(), fixture.s().tree(), 0.002, Norm::kL2, 64);
  const uint64_t loose = BfrjPeakIntermediatePages(
      fixture.r().tree(), fixture.s().tree(), 0.2, Norm::kL2, 64);
  EXPECT_LE(tight, loose);
  EXPECT_GT(loose, 0u);
}

TEST(BfrjTest, SmallBufferSpillsIntermediates) {
  SmallVectorJoin fixture(400, 400, 11, 0.1);
  // Buffer of 2 pages: the candidate-pair list cannot stay in memory.
  BufferPool pool(&fixture.disk(), 2);
  CollectingSink sink;
  const IoStats before = fixture.disk().stats();
  ASSERT_TRUE(BfrjJoin(fixture.r().tree(), fixture.s().tree(),
                       fixture.input(), fixture.eps(), fixture.norm(), 64,
                       &fixture.disk(), &pool, &sink, nullptr)
                  .ok());
  const IoStats delta = fixture.disk().stats().Delta(before);
  EXPECT_GT(delta.pages_written, 0u);  // Spilled.
  EXPECT_EQ(sink.Sorted(), fixture.Expected());  // Still correct.
}

}  // namespace
}  // namespace pmjoin
