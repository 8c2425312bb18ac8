// Determinism guarantees of the cluster-join executor's multi-threaded
// join step (core/executor.h): for any worker count, the emitted pair
// sequence, the aggregated OpCounters, and the simulated IoStats must be
// identical to the one-thread run — threads may only change wall-clock
// time.

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/executor.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "io/simulated_disk.h"
#include "join_test_util.h"

namespace pmjoin {
namespace {

using testing_util::SmallVectorJoin;

/// One full clustered execution on a fresh disk/pool; returns the emitted
/// pair sequence (in emission order, not sorted) and the IoStats and
/// OpCounters deltas of the execution itself.
struct RunResult {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  IoStats io;
  OpCounters ops;
  Status status = Status::OK();
};

RunResult RunOnce(SmallVectorJoin& fixture,
                  const std::vector<Cluster>& clusters,
                  const std::vector<uint32_t>& order, uint32_t buffer,
                  uint32_t num_threads) {
  RunResult result;
  const IoStats io_before = fixture.disk().stats();
  BufferPool pool(&fixture.disk(), buffer);
  CollectingSink sink;
  result.status = ExecuteClusteredJoin(fixture.input(), clusters, order,
                                       &pool, &sink, &result.ops, num_threads);
  result.pairs = sink.pairs();
  result.io = fixture.disk().stats().Delta(io_before);
  return result;
}

class ExecutorParallelTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ExecutorParallelTest, MatchesSerialOnSeededWorkload) {
  const uint32_t threads = GetParam();
  SmallVectorJoin fixture(400, 350, 21, 0.05);
  const uint32_t buffer = 10;
  const auto clusters = SquareClustering(fixture.matrix(), buffer, nullptr);
  ASSERT_GT(clusters.size(), 1u);
  const auto order = ScheduleClusters(clusters, fixture.input(), nullptr);

  const RunResult serial = RunOnce(fixture, clusters, order, buffer, 1);
  ASSERT_TRUE(serial.status.ok());
  ASSERT_FALSE(serial.pairs.empty());

  const RunResult parallel =
      RunOnce(fixture, clusters, order, buffer, threads);
  ASSERT_TRUE(parallel.status.ok());

  // Identical emission *sequence* (stronger than set equality): chunked
  // shards drain in entry order.
  EXPECT_EQ(parallel.pairs, serial.pairs);
  // Byte-identical simulated I/O: seeks, transfers, hits.
  EXPECT_EQ(parallel.io, serial.io);
  // Identical aggregated CPU accounting.
  EXPECT_EQ(parallel.ops, serial.ops);
}

TEST_P(ExecutorParallelTest, MatchesSerialWhenPrefetchRarelyFits) {
  // A tight buffer: SquareClustering fills all 8 pages, so a cluster's
  // misses evict the pages the previous cluster just released. Stats must
  // still match exactly.
  const uint32_t threads = GetParam();
  SmallVectorJoin fixture(300, 300, 33, 0.06);
  uint32_t buffer = 8;
  const auto clusters = SquareClustering(fixture.matrix(), buffer, nullptr);
  const auto order = ScheduleClusters(clusters, fixture.input(), nullptr);

  const RunResult serial = RunOnce(fixture, clusters, order, buffer, 1);
  ASSERT_TRUE(serial.status.ok());
  const RunResult parallel =
      RunOnce(fixture, clusters, order, buffer, threads);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.pairs, serial.pairs);
  EXPECT_EQ(parallel.io, serial.io);
  EXPECT_EQ(parallel.ops, serial.ops);
}

TEST_P(ExecutorParallelTest, MatchesSerialWithRoomyBuffer) {
  // A roomy buffer, 48 of the fixture's 70 pages: clusters are large, and
  // pages left resident by earlier clusters turn into buffer hits. Stats
  // must still match exactly.
  const uint32_t threads = GetParam();
  SmallVectorJoin fixture(300, 250, 45, 0.05);
  const uint32_t buffer = 48;
  const auto clusters = SquareClustering(fixture.matrix(), buffer, nullptr);
  const auto order = ScheduleClusters(clusters, fixture.input(), nullptr);

  const RunResult serial = RunOnce(fixture, clusters, order, buffer, 1);
  ASSERT_TRUE(serial.status.ok());
  const RunResult parallel =
      RunOnce(fixture, clusters, order, buffer, threads);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.pairs, serial.pairs);
  EXPECT_EQ(parallel.io, serial.io);
  EXPECT_EQ(parallel.ops, serial.ops);
}

TEST_P(ExecutorParallelTest, ShuffledOrderAlsoMatches)
{
  // Random-SC's shuffled cluster order stresses pathological residency
  // overlaps between consecutive clusters.
  const uint32_t threads = GetParam();
  SmallVectorJoin fixture(350, 300, 69, 0.05);
  const uint32_t buffer = 10;
  const auto clusters = SquareClustering(fixture.matrix(), buffer, nullptr);
  std::vector<uint32_t> order(clusters.size());
  std::iota(order.begin(), order.end(), 0u);
  Rng rng(99);
  rng.Shuffle(order);

  const RunResult serial = RunOnce(fixture, clusters, order, buffer, 1);
  ASSERT_TRUE(serial.status.ok());
  const RunResult parallel =
      RunOnce(fixture, clusters, order, buffer, threads);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.pairs, serial.pairs);
  EXPECT_EQ(parallel.io, serial.io);
  EXPECT_EQ(parallel.ops, serial.ops);
}

INSTANTIATE_TEST_SUITE_P(Threads, ExecutorParallelTest,
                         ::testing::Values(2u, 4u, 8u));

TEST(ExecutorParallelTest, ErrorPositionsMatchSerial) {
  // An oversized cluster after a valid one: every thread count must join
  // the valid cluster fully, then fail with BufferFull.
  SimulatedDisk disk;
  disk.CreateFile("r", 12);
  disk.CreateFile("s", 12);
  class NullJoiner : public PagePairJoiner {
   public:
    void JoinPages(uint32_t, uint32_t, PairSink*, OpCounters*) override {}
    void ChargeScanned(uint32_t, uint32_t, OpCounters*) const override {}
  };
  NullJoiner joiner;
  JoinInput input;
  input.r_file = 0;
  input.s_file = 1;
  input.r_pages = 12;
  input.s_pages = 12;
  input.joiner = &joiner;

  Cluster small;
  small.rows = {0};
  small.cols = {0};
  small.entries = {MatrixEntry{0, 0}};
  Cluster big;
  big.rows = {1, 2, 3};
  big.cols = {1, 2, 3};
  for (uint32_t r : big.rows) {
    for (uint32_t c : big.cols) big.entries.push_back(MatrixEntry{r, c});
  }
  const std::vector<Cluster> clusters{small, big};
  const std::vector<uint32_t> order{0, 1};

  for (uint32_t threads : {1u, 2u, 4u}) {
    SimulatedDisk fresh;
    fresh.CreateFile("r", 12);
    fresh.CreateFile("s", 12);
    BufferPool pool(&fresh, 4);  // big needs 6 pages.
    CountingSink sink;
    const Status st = ExecuteClusteredJoin(input, clusters, order, &pool,
                                           &sink, nullptr, threads);
    EXPECT_FALSE(st.ok()) << "threads=" << threads;
    // The small cluster was processed before the failure.
    EXPECT_EQ(fresh.stats().pages_read, 2u) << "threads=" << threads;
    EXPECT_EQ(pool.PinnedCount(), 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pmjoin
