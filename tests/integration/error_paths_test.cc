// Status/Result error-path coverage: failures must surface as typed
// statuses through every public layer — never as crashes, and never with
// the pool's bookkeeping left inconsistent (ValidateInvariants after each
// failed call).

#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "core/join_driver.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/buffer_pool.h"
#include "io/simulated_disk.h"
#include "join_test_util.h"

namespace pmjoin {
namespace {

// ---------------------------------------------------------------------------
// SimulatedDisk: bad page coordinates are typed statuses, not crashes.

TEST(DiskErrorPathTest, ReadOfUnknownFileIsInvalidArgument) {
  SimulatedDisk disk;
  const Status st = disk.ReadPage({99, 0});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
}

TEST(DiskErrorPathTest, ReadPastEndOfFileIsOutOfRange) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("data", 4);
  EXPECT_TRUE(disk.ReadPage({file, 3}).ok());
  const Status st = disk.ReadPage({file, 4});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange());
  // A failed access charges nothing.
  EXPECT_EQ(disk.stats().pages_read, 1u);
}

TEST(DiskErrorPathTest, ReadPagesCheckedBeforeAnyCharge) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("data", 4);
  const Status st = disk.ReadPages({file, 2}, 5);  // Tail out of bounds.
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_EQ(disk.stats().pages_read, 0u);
}

// ---------------------------------------------------------------------------
// BufferPool: failed operations propagate the disk's status and leave the
// pool audit-clean.

TEST(BufferPoolErrorPathTest, PinOfBadPagePropagatesStatus) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("data", 4);
  BufferPool pool(&disk, 2);
  const Status st = pool.Pin({file, 40});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfRange());
  EXPECT_FALSE(pool.Contains({file, 40}));
  EXPECT_EQ(pool.PinnedCount(), 0u);
  EXPECT_TRUE(pool.ValidateInvariants().ok());
}

TEST(BufferPoolErrorPathTest, PinBeyondAllPinnedCapacityIsBufferFull) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("data", 8);
  BufferPool pool(&disk, 2);
  ASSERT_TRUE(pool.Pin({file, 0}).ok());
  ASSERT_TRUE(pool.Pin({file, 1}).ok());
  const Status st = pool.Pin({file, 2});
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBufferFull());
  EXPECT_TRUE(pool.ValidateInvariants().ok());
}

TEST(BufferPoolErrorPathTest, ClearWithPinsOutstandingFails) {
  SimulatedDisk disk;
  const uint32_t file = disk.CreateFile("data", 8);
  BufferPool pool(&disk, 2);
  ASSERT_TRUE(pool.Pin({file, 0}).ok());
  const Status st = pool.Clear();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInternal());
  pool.Unpin({file, 0});
  EXPECT_TRUE(pool.Clear().ok());
}

// ---------------------------------------------------------------------------
// Executor: cluster/pool mismatches become BufferFull/InvalidArgument from
// both the serial and the parallel path, with identical classification.

class ExecutorErrorPathTest : public ::testing::Test {
 protected:
  ExecutorErrorPathTest() : join_(40, 40, /*seed=*/5, /*eps=*/0.05) {}

  /// One cluster holding every marked entry of the matrix.
  Cluster WholeMatrixCluster() const {
    Cluster cluster;
    cluster.rows = join_.matrix().MarkedRows();
    cluster.cols = join_.matrix().MarkedCols();
    cluster.entries = join_.matrix().AllEntries();
    return cluster;
  }

  testing_util::SmallVectorJoin join_;
};

TEST_F(ExecutorErrorPathTest, OversizedClusterIsBufferFullSerialAndParallel) {
  const Cluster cluster = WholeMatrixCluster();
  ASSERT_GT(cluster.PageCount(), 2u);
  const std::vector<Cluster> clusters{cluster};
  const std::vector<uint32_t> order{0};
  for (uint32_t threads : {1u, 2u}) {
    BufferPool pool(&join_.disk(), 2);
    CountingSink sink;
    OpCounters ops;
    const Status st = ExecuteClusteredJoin(join_.input(), clusters, order,
                                           &pool, &sink, &ops, threads);
    ASSERT_FALSE(st.ok()) << "threads=" << threads;
    EXPECT_TRUE(st.IsBufferFull()) << "threads=" << threads;
    EXPECT_EQ(sink.count(), 0u) << "threads=" << threads;
    EXPECT_TRUE(pool.ValidateInvariants().ok()) << "threads=" << threads;
  }
}

TEST_F(ExecutorErrorPathTest, ExternallyPinnedPoolSurfacesBufferFull) {
  const Cluster cluster = WholeMatrixCluster();
  const std::vector<Cluster> clusters{cluster};
  const std::vector<uint32_t> order{0};
  // Capacity fits the cluster alone, but pins on an unrelated file starve
  // the batch of one frame: PinBatch must fail with BufferFull (not crash
  // mid-eviction) and the executor must propagate it.
  const uint32_t extra = join_.disk().CreateFile("extra", 2);
  BufferPool pool(&join_.disk(), cluster.PageCount() + 1);
  ASSERT_TRUE(pool.Pin({extra, 0}).ok());
  ASSERT_TRUE(pool.Pin({extra, 1}).ok());
  CountingSink sink;
  OpCounters ops;
  const Status st = ExecuteClusteredJoin(join_.input(), clusters, order,
                                         &pool, &sink, &ops);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBufferFull());
  EXPECT_EQ(pool.PinnedCount(), 2u) << "failed batch must roll back";
  EXPECT_TRUE(pool.ValidateInvariants().ok());
}

TEST_F(ExecutorErrorPathTest, OrderSizeMismatchIsInvalidArgument) {
  const std::vector<Cluster> clusters{WholeMatrixCluster()};
  const std::vector<uint32_t> order{0, 0};
  BufferPool pool(&join_.disk(), 64);
  CountingSink sink;
  OpCounters ops;
  const Status st = ExecuteClusteredJoin(join_.input(), clusters, order,
                                         &pool, &sink, &ops);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// JoinDriver: Result-returning facade surfaces argument errors as typed
// statuses.

TEST(DriverErrorPathTest, DimensionMismatchIsInvalidArgument) {
  SimulatedDisk disk;
  VectorDataset::Options options;
  options.page_size_bytes = 64;
  auto r = VectorDataset::Build(&disk, "r", GenUniform(50, 2, 1), options);
  auto s = VectorDataset::Build(&disk, "s", GenUniform(50, 3, 2), options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  JoinDriver driver(&disk);
  CountingSink sink;
  const auto report =
      driver.RunVector(*r, *s, 0.05, JoinOptions{}, &sink);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

TEST(DriverErrorPathTest, EmptyDatasetBuildFails) {
  SimulatedDisk disk;
  VectorData empty;
  empty.dims = 2;
  const auto ds =
      VectorDataset::Build(&disk, "empty", empty, VectorDataset::Options{});
  ASSERT_FALSE(ds.ok());
  EXPECT_TRUE(ds.status().IsInvalidArgument());
}

}  // namespace
}  // namespace pmjoin
