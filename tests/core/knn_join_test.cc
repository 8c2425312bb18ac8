#include "core/knn_join.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/pair_sink.h"
#include "common/thread_pool.h"
#include "core/join_driver.h"
#include "core/reference_join.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/buffer_pool.h"
#include "io/storage_backend.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::MakeTestBackend;

/// Emission-order pair list of a reference kNN run.
std::vector<std::pair<uint64_t, uint64_t>> ReferencePairs(
    const VectorData& r, const VectorData& s, uint32_t k, Norm norm,
    bool self_join) {
  CollectingSink sink;
  ReferenceKnnJoin(r, s, k, norm, self_join, &sink);
  return sink.pairs();
}

TEST(KnnResultSinkTest, KeepsKSmallestWithIdTieBreak) {
  KnnResultSink sink(1, 2);
  EXPECT_TRUE(std::isinf(sink.BoundStat(0)));
  sink.Offer(0, 5.0, 10);
  EXPECT_TRUE(std::isinf(sink.BoundStat(0)));  // heap not full yet
  sink.Offer(0, 3.0, 11);
  EXPECT_DOUBLE_EQ(sink.BoundStat(0), 5.0);
  // Equal statistic, smaller id: displaces the current k-th entry.
  sink.Offer(0, 5.0, 7);
  EXPECT_DOUBLE_EQ(sink.BoundStat(0), 5.0);
  // Equal statistic, larger id: rejected.
  sink.Offer(0, 5.0, 99);
  // Strictly smaller: displaces.
  sink.Offer(0, 1.0, 42);
  const std::vector<KnnResultSink::Neighbor> got = sink.SortedNeighbors(0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].id, 42u);
  EXPECT_DOUBLE_EQ(got[0].stat, 1.0);
  EXPECT_EQ(got[1].id, 11u);
  EXPECT_DOUBLE_EQ(got[1].stat, 3.0);
  // +infinity offers (filtered kernel rows) are ignored.
  sink.Offer(0, std::numeric_limits<double>::infinity(), 1);
  EXPECT_EQ(sink.SortedNeighbors(0).size(), 2u);
}

TEST(KnnResultSinkTest, EmitOrdersRowsThenStatThenId) {
  KnnResultSink sink(2, 2);
  sink.Offer(1, 2.0, 5);
  sink.Offer(1, 1.0, 9);
  sink.Offer(0, 4.0, 3);
  CollectingSink pairs;
  OpCounters ops;
  EXPECT_EQ(sink.Emit(&pairs, &ops), 3u);
  EXPECT_EQ(ops.result_pairs, 3u);
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, 3}, {1, 9}, {1, 5}};
  EXPECT_EQ(pairs.pairs(), expected);
}

TEST(KnnCandidateMatrixTest, BuildSortsRowsAndPassesAudit) {
  VectorData data = GenRoadNetwork(400, 3);
  auto disk = MakeTestBackend();
  VectorDataset::Options layout;
  layout.page_size_bytes = 128;
  VectorDataset ds =
      VectorDataset::Build(disk.get(), "m", data, layout).value();
  ASSERT_GT(ds.num_pages(), 4u);
  OpCounters ops;
  const KnnCandidateMatrix matrix = KnnCandidateMatrix::Build(
      ds.page_mbrs(), ds.page_mbrs(), Norm::kL2, &ops);
  EXPECT_EQ(matrix.rows(), ds.num_pages());
  EXPECT_EQ(matrix.cols(), ds.num_pages());
  EXPECT_EQ(ops.mbr_tests,
            uint64_t(ds.num_pages()) * ds.num_pages());
  ASSERT_TRUE(matrix.ValidateInvariants().ok());
  for (uint32_t rp = 0; rp < matrix.rows(); ++rp) {
    const auto& row = matrix.Row(rp);
    ASSERT_EQ(row.size(), matrix.cols());
    for (size_t i = 1; i < row.size(); ++i)
      EXPECT_LE(row[i - 1].bound_stat, row[i].bound_stat);
    // A self page pair has MINDIST zero, so it must lead the row.
    EXPECT_DOUBLE_EQ(row[0].bound_stat, 0.0);
  }
}

/// Property sweep: driver kNN == brute-force reference, as exact ordered
/// pair sequences, across k x dims x norm.
TEST(KnnJoinPropertyTest, MatchesReferenceAcrossKDimsNorms) {
  auto disk = MakeTestBackend();
  JoinDriver driver(disk.get());
  for (const size_t dims : {1u, 2u, 3u, 16u, 64u}) {
    const VectorData r_raw = GenUniform(90, dims, /*seed=*/7);
    const VectorData s_raw = GenUniform(120, dims, /*seed=*/8);
    VectorDataset::Options layout;
    layout.page_size_bytes = 1024;
    const std::string tag = std::to_string(dims);
    VectorDataset r =
        VectorDataset::Build(disk.get(), "r" + tag, r_raw, layout).value();
    VectorDataset s =
        VectorDataset::Build(disk.get(), "s" + tag, s_raw, layout).value();
    for (const uint32_t k : {1u, 4u, 16u}) {
      for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
        JoinOptions options;
        options.buffer_pages = 16;
        options.norm = norm;
        CollectingSink sink;
        auto report = driver.RunKnnJoin(r, s, k, options, &sink);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_EQ(report->algorithm, Algorithm::kKnn);
        const auto expected = ReferencePairs(r_raw, s_raw, k, norm, false);
        EXPECT_EQ(sink.pairs(), expected)
            << "dims=" << dims << " k=" << k;
        EXPECT_EQ(report->result_pairs, expected.size());
        EXPECT_EQ(report->ops.result_pairs, expected.size());
      }
    }
  }
}

TEST(KnnJoinPropertyTest, SelfJoinSkipsOnlyIdentityPairs) {
  auto disk = MakeTestBackend();
  JoinDriver driver(disk.get());
  const VectorData raw = GenCorrelatedClusters(150, 8, /*seed=*/3);
  VectorDataset::Options layout;
  layout.page_size_bytes = 512;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "self", raw, layout).value();
  JoinOptions options;
  options.buffer_pages = 8;
  CollectingSink sink;
  auto report = driver.RunKnnJoin(r, r, 3, options, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(sink.pairs(), ReferencePairs(raw, raw, 3, Norm::kL2, true));
  for (const auto& [rid, sid] : sink.pairs()) EXPECT_NE(rid, sid);
}

TEST(KnnJoinPropertyTest, TiesAtKthDistanceResolveToSmallerId) {
  // Four S copies of the same point at equal distance from every R record:
  // with k=2 the retained neighbors must be the two smallest ids.
  VectorData r_raw, s_raw;
  r_raw.dims = s_raw.dims = 2;
  r_raw.values = {0.0f, 0.0f, 0.25f, 0.0f};
  for (int copy = 0; copy < 4; ++copy) {
    s_raw.values.push_back(0.5f);
    s_raw.values.push_back(0.5f);
  }
  auto disk = MakeTestBackend();
  VectorDataset::Options layout;
  layout.page_size_bytes = 64;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "tr", r_raw, layout).value();
  VectorDataset s =
      VectorDataset::Build(disk.get(), "ts", s_raw, layout).value();
  JoinDriver driver(disk.get());
  JoinOptions options;
  options.buffer_pages = 4;
  CollectingSink sink;
  auto report = driver.RunKnnJoin(r, s, 2, options, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(sink.pairs(), expected);
  EXPECT_EQ(sink.pairs(), ReferencePairs(r_raw, s_raw, 2, Norm::kL2, false));
}

TEST(KnnJoinPropertyTest, KAtLeastCardinalityReturnsAllPairs) {
  auto disk = MakeTestBackend();
  JoinDriver driver(disk.get());
  const VectorData r_raw = GenUniform(40, 4, /*seed=*/11);
  const VectorData s_raw = GenUniform(10, 4, /*seed=*/12);
  VectorDataset::Options layout;
  layout.page_size_bytes = 256;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "kr", r_raw, layout).value();
  VectorDataset s =
      VectorDataset::Build(disk.get(), "ks", s_raw, layout).value();
  JoinOptions options;
  options.buffer_pages = 8;
  CollectingSink sink;
  auto report = driver.RunKnnJoin(r, s, /*k=*/16, options, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every (r, s) pair is a neighbor when k >= |S|.
  EXPECT_EQ(sink.pairs().size(), r_raw.count() * s_raw.count());
  EXPECT_EQ(sink.pairs(), ReferencePairs(r_raw, s_raw, 16, Norm::kL2, false));
}

TEST(KnnJoinPropertyTest, ParallelRunIsByteIdenticalToSerial) {
  // kNN runs on the calling thread: JoinOptions::num_threads (the
  // clustered executor's knob) must change nothing.
  auto disk = MakeTestBackend();
  JoinDriver driver(disk.get());
  const VectorData r_raw = GenCorrelatedClusters(300, 8, /*seed=*/21);
  const VectorData s_raw = GenCorrelatedClusters(300, 8, /*seed=*/22);
  VectorDataset::Options layout;
  layout.page_size_bytes = 512;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "pr", r_raw, layout).value();
  VectorDataset s =
      VectorDataset::Build(disk.get(), "ps", s_raw, layout).value();

  std::optional<JoinReport> serial_report;
  std::vector<std::pair<uint64_t, uint64_t>> serial_pairs;
  for (const uint32_t threads : {1u, 8u}) {
    JoinOptions options;
    options.buffer_pages = 12;
    options.num_threads = threads;
    CollectingSink sink;
    const IoStats before = disk->stats();
    auto report = driver.RunKnnJoin(r, s, 4, options, &sink);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const IoStats delta = disk->stats().Delta(before);
    if (threads == 1) {
      serial_report = *report;
      serial_pairs = sink.pairs();
      EXPECT_EQ(serial_pairs, ReferencePairs(r_raw, s_raw, 4, Norm::kL2,
                                             false));
    } else {
      EXPECT_EQ(sink.pairs(), serial_pairs);
      EXPECT_EQ(report->ops, serial_report->ops);
      EXPECT_EQ(report->io, serial_report->io);
      EXPECT_EQ(delta, serial_report->io);
    }
  }
}

/// Pruning is answer-preserving and strictly cheaper on clustered data at
/// the paper-style operating point (k=8) — the tentpole's I/O acceptance
/// criterion, asserted over modeled pages_read.
TEST(KnnJoinPruningTest, PruningKeepsAnswersAndStrictlyCutsPageReads) {
  auto disk = MakeTestBackend();
  const VectorData r_raw = GenCorrelatedClusters(500, 8, /*seed=*/31);
  const VectorData s_raw = GenCorrelatedClusters(500, 8, /*seed=*/32);
  VectorDataset::Options layout;
  layout.page_size_bytes = 512;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "cr", r_raw, layout).value();
  VectorDataset s =
      VectorDataset::Build(disk.get(), "cs", s_raw, layout).value();
  const KnnCandidateMatrix matrix = KnnCandidateMatrix::Build(
      r.page_mbrs(), s.page_mbrs(), Norm::kL2, nullptr);

  IoStats reads[2];
  std::vector<std::pair<uint64_t, uint64_t>> pairs[2];
  for (const bool prune : {false, true}) {
    BufferPool pool(disk.get(), 8);
    KnnJoinOptions options;
    options.k = 8;
    options.prune = prune;
    KnnResultSink results(r.num_records(), options.k);
    OpCounters ops;
    const IoStats before = disk->stats();
    ASSERT_TRUE(KnnJoinVectors(r, s, matrix, options, &pool, &results, &ops)
                    .ok());
    reads[prune ? 1 : 0] = disk->stats().Delta(before);
    CollectingSink sink;
    results.Emit(&sink, nullptr);
    pairs[prune ? 1 : 0] = sink.pairs();
    ASSERT_TRUE(pool.CheckQuiescent().ok());
  }
  EXPECT_EQ(pairs[0], pairs[1]);
  EXPECT_EQ(pairs[1], ReferencePairs(r_raw, s_raw, 8, Norm::kL2, false));
  EXPECT_LT(reads[1].pages_read, reads[0].pages_read);
}

TEST(KnnJoinErrorTest, RejectsBadShapesAndParameters) {
  auto disk = MakeTestBackend();
  JoinDriver driver(disk.get());
  const VectorData raw = GenRoadNetwork(60, 41);
  VectorDataset::Options layout;
  layout.page_size_bytes = 128;
  VectorDataset r =
      VectorDataset::Build(disk.get(), "er", raw, layout).value();
  JoinOptions options;
  options.buffer_pages = 4;
  CollectingSink sink;
  // k = 0 is not a kNN query.
  EXPECT_TRUE(driver.RunKnnJoin(r, r, 0, options, &sink)
                  .status()
                  .IsInvalidArgument());
  // kKnn is not an eps-join algorithm.
  options.algorithm = Algorithm::kKnn;
  EXPECT_TRUE(driver.RunVector(r, r, 0.01, options, &sink)
                  .status()
                  .IsInvalidArgument());
  // Mis-shaped result sink (wrong k) is refused by the join core.
  const KnnCandidateMatrix matrix = KnnCandidateMatrix::Build(
      r.page_mbrs(), r.page_mbrs(), Norm::kL2, nullptr);
  BufferPool pool(disk.get(), 4);
  KnnJoinOptions knn_options;
  knn_options.k = 3;
  KnnResultSink wrong_k(r.num_records(), 2);
  EXPECT_TRUE(KnnJoinVectors(r, r, matrix, knn_options, &pool, &wrong_k,
                             nullptr)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace pmjoin
