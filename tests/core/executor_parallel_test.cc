// Determinism guarantees of the parallel cluster-join executor
// (core/executor.h): for any worker count, the emitted pair sequence, the
// aggregated OpCounters, and the simulated IoStats must be identical to
// the serial run — parallelism may only change wall-clock time.

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
  // A buffer barely larger than the biggest cluster forces the prefetch
  // feasibility check to decline often, exercising the serial-position
  // fallback path. Stats must still match exactly.
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
  // A roomy buffer lets every prefetch proceed; the overlap must still be
  // accounting-neutral.
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

TEST(ExecutorParallelTest, PrefetchDeclinedWhenBatchPagesAreTheVictims) {
  // Regression: the prefetch gate must not count the next cluster's own
  // resident-unpinned pages as eviction victims — PinBatch pins them
  // before admitting any miss, so they can never be evicted on behalf of
  // that batch. With capacity 4, after clusters {r0,s0} and {r1,s1} the
  // pool holds four pages with r0,s0 unpinned; prefetching {r0,s2,s3}
  // while {r1,s1} is still pinned needs two evictions but only s0 is a
  // real victim (r0 belongs to the batch). A gate that merely compares
  // evictions against UnpinnedCount() admits the pin, which then fails
  // mid-batch with BufferFull and aborts the parallel run where the
  // serial run succeeds. The fixed gate defers to the serial position,
  // where the just-unpinned {r1,s1} supply the victims.
  class NullJoiner : public PagePairJoiner {
   public:
    void JoinPages(uint32_t, uint32_t, PairSink*, OpCounters*) override {}
    void ChargeScanned(uint32_t, uint32_t, OpCounters*) const override {}
  };
  NullJoiner joiner;

  Cluster c0;
  c0.rows = {0};
  c0.cols = {0};
  c0.entries = {MatrixEntry{0, 0}};
  Cluster c1;
  c1.rows = {1};
  c1.cols = {1};
  c1.entries = {MatrixEntry{1, 1}};
  Cluster c2;
  c2.rows = {0};
  c2.cols = {2, 3};
  c2.entries = {MatrixEntry{0, 2}, MatrixEntry{0, 3}};
  const std::vector<Cluster> clusters{c0, c1, c2};
  const std::vector<uint32_t> order{0, 1, 2};

  IoStats serial_io;
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    SimulatedDisk disk;
    disk.CreateFile("r", 2);
    disk.CreateFile("s", 4);
    JoinInput input;
    input.r_file = 0;
    input.s_file = 1;
    input.r_pages = 2;
    input.s_pages = 4;
    input.joiner = &joiner;
    BufferPool pool(&disk, 4);
    CountingSink sink;
    const Status st = ExecuteClusteredJoin(input, clusters, order, &pool,
                                           &sink, nullptr, threads);
    ASSERT_TRUE(st.ok()) << "threads=" << threads << ": " << st.message();
    EXPECT_EQ(pool.PinnedCount(), 0u) << "threads=" << threads;
    if (threads == 1) {
      serial_io = disk.stats();
    } else {
      EXPECT_EQ(disk.stats(), serial_io) << "threads=" << threads;
    }
  }
}

TEST(ExecutorParallelTest, ErrorPositionsMatchSerial) {
  // An oversized cluster after a valid one: both executors must join the
  // valid cluster fully, then fail with BufferFull.
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
