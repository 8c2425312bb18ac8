#include "core/square_clustering.h"

#include <algorithm>
#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pmjoin {
namespace {

PredictionMatrix RandomMatrix(Rng* rng, uint32_t rows, uint32_t cols,
                              double density) {
  PredictionMatrix m(rows, cols);
  for (uint32_t r = 0; r < rows; ++r) {
    for (uint32_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) m.Mark(r, c);
    }
  }
  m.Finalize();
  return m;
}

PredictionMatrix ClusteredMatrix(Rng* rng, uint32_t rows, uint32_t cols,
                                 int blobs, uint32_t blob_size) {
  PredictionMatrix m(rows, cols);
  for (int b = 0; b < blobs; ++b) {
    const uint32_t r0 = static_cast<uint32_t>(rng->Uniform(rows));
    const uint32_t c0 = static_cast<uint32_t>(rng->Uniform(cols));
    for (uint32_t i = 0; i < blob_size; ++i) {
      const uint32_t r = std::min<uint32_t>(
          rows - 1, r0 + static_cast<uint32_t>(rng->Uniform(8)));
      const uint32_t c = std::min<uint32_t>(
          cols - 1, c0 + static_cast<uint32_t>(rng->Uniform(8)));
      m.Mark(r, c);
    }
  }
  m.Finalize();
  return m;
}

TEST(SquareClusteringTest, EmptyMatrix) {
  PredictionMatrix m(5, 5);
  m.Finalize();
  EXPECT_TRUE(SquareClustering(m, 4, nullptr).empty());
}

TEST(SquareClusteringTest, SingleEntry) {
  PredictionMatrix m(5, 5);
  m.Mark(2, 3);
  m.Finalize();
  const auto clusters = SquareClustering(m, 4, nullptr);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].rows, (std::vector<uint32_t>{2}));
  EXPECT_EQ(clusters[0].cols, (std::vector<uint32_t>{3}));
  EXPECT_TRUE(ValidateClustering(m, clusters, 4).ok());
}

struct ScCase {
  uint32_t rows, cols, buffer;
  double density;
  uint64_t seed;
};

// Names each case by its fields: the default byte dump would carry the
// struct's padding into the ctest name.
void PrintTo(const ScCase& c, std::ostream* os) {
  *os << c.rows << 'x' << c.cols << "_B" << c.buffer << "_density"
      << c.density << "_seed" << c.seed;
}

class SquareClusteringPropertyTest
    : public ::testing::TestWithParam<ScCase> {};

TEST_P(SquareClusteringPropertyTest, ValidPartitionWithinBuffer) {
  const ScCase& c = GetParam();
  Rng rng(c.seed);
  const PredictionMatrix m =
      RandomMatrix(&rng, c.rows, c.cols, c.density);
  const auto clusters = SquareClustering(m, c.buffer, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, c.buffer).ok())
      << ValidateClustering(m, clusters, c.buffer).ToString();
}

TEST_P(SquareClusteringPropertyTest, RowsColsRoughlyBalancedWhenDense) {
  // Theorem 2's optimum is r = c = B/2; interior clusters of a dense
  // matrix should stay within a factor ~3 of balance.
  const ScCase& c = GetParam();
  if (c.density < 0.2) return;  // Only meaningful when clusters fill up.
  if (c.rows < c.buffer || c.cols < c.buffer) {
    return;  // Degenerate shapes cannot balance.
  }
  Rng rng(c.seed + 1);
  const PredictionMatrix m =
      RandomMatrix(&rng, c.rows, c.cols, c.density);
  const auto clusters = SquareClustering(m, c.buffer, nullptr);
  size_t balanced = 0;
  for (const Cluster& cluster : clusters) {
    if (cluster.PageCount() < c.buffer / 2) continue;  // Boundary cluster.
    const double ratio = double(cluster.rows.size()) /
                         std::max<size_t>(1, cluster.cols.size());
    if (ratio > 1.0 / 3 && ratio < 3.0) ++balanced;
  }
  if (!clusters.empty()) {
    EXPECT_GT(balanced + 1, clusters.size() / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SquareClusteringPropertyTest,
    ::testing::Values(ScCase{20, 20, 8, 0.3, 1}, ScCase{20, 20, 8, 0.05, 2},
                      ScCase{50, 30, 10, 0.5, 3}, ScCase{30, 50, 6, 0.9, 4},
                      ScCase{100, 100, 16, 0.02, 5},
                      ScCase{5, 200, 12, 0.3, 6},
                      ScCase{200, 5, 12, 0.3, 7},
                      ScCase{64, 64, 4, 0.2, 8},
                      ScCase{64, 64, 2, 0.2, 9},
                      ScCase{1, 50, 8, 0.8, 10},
                      ScCase{50, 1, 8, 0.8, 11}));

TEST(SquareClusteringTest, SingleRowMatrix) {
  PredictionMatrix m(1, 100);
  for (uint32_t c = 0; c < 100; ++c) m.Mark(0, c);
  m.Finalize();
  const auto clusters = SquareClustering(m, 10, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, 10).ok());
  // One row + up to 9 cols per cluster → at least ceil(100/9) clusters.
  EXPECT_GE(clusters.size(), 100u / 9u);
}

TEST(SquareClusteringTest, SingleColumnMatrix) {
  PredictionMatrix m(100, 1);
  for (uint32_t r = 0; r < 100; ++r) m.Mark(r, 0);
  m.Finalize();
  const auto clusters = SquareClustering(m, 10, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, 10).ok());
}

TEST(SquareClusteringTest, DiagonalMatrix) {
  PredictionMatrix m(50, 50);
  for (uint32_t i = 0; i < 50; ++i) m.Mark(i, i);
  m.Finalize();
  const auto clusters = SquareClustering(m, 10, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, 10).ok());
  // A diagonal has r = c = w per cluster → each cluster holds ~B/2
  // entries → ~10 clusters.
  EXPECT_GE(clusters.size(), 50u / 5u);
}

TEST(SquareClusteringTest, FullMatrixDenseClusters) {
  PredictionMatrix m(20, 20);
  for (uint32_t r = 0; r < 20; ++r) {
    for (uint32_t c = 0; c < 20; ++c) m.Mark(r, c);
  }
  m.Finalize();
  const uint32_t buffer = 10;
  const auto clusters = SquareClustering(m, buffer, nullptr);
  ASSERT_TRUE(ValidateClustering(m, clusters, buffer).ok());
  // Dense matrix → interior clusters should hold r·c = (B/2)² entries,
  // far more than the r + c pages they cost (Theorem 2 payoff).
  size_t dense_clusters = 0;
  for (const Cluster& cluster : clusters) {
    if (cluster.entries.size() >=
        cluster.rows.size() * cluster.cols.size()) {
      ++dense_clusters;
    }
  }
  EXPECT_EQ(dense_clusters, clusters.size());  // Rectangles fully marked.
}

TEST(SquareClusteringTest, ClusteredBlobsStayTogether) {
  Rng rng(13);
  const PredictionMatrix m = ClusteredMatrix(&rng, 100, 100, 6, 40);
  const auto clusters = SquareClustering(m, 20, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, 20).ok());
  // Blob structure → dramatically fewer clusters than entries.
  EXPECT_LT(clusters.size(), m.MarkedCount() / 2);
}

TEST(SquareClusteringTest, CountsClusterOps) {
  Rng rng(17);
  const PredictionMatrix m = RandomMatrix(&rng, 30, 30, 0.3);
  OpCounters ops;
  SquareClustering(m, 8, &ops);
  EXPECT_GE(ops.cluster_ops, m.MarkedCount());
}

TEST(SquareClusteringTest, TinyBufferStillTerminates) {
  Rng rng(19);
  const PredictionMatrix m = RandomMatrix(&rng, 40, 40, 0.4);
  const auto clusters = SquareClustering(m, 2, nullptr);
  EXPECT_TRUE(ValidateClustering(m, clusters, 2).ok());
}

}  // namespace
}  // namespace pmjoin
