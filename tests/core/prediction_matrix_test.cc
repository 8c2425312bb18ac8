#include "core/prediction_matrix.h"

#include <gtest/gtest.h>

namespace pmjoin {
namespace {

TEST(PredictionMatrixTest, EmptyMatrix) {
  PredictionMatrix m(4, 5);
  m.Finalize();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_EQ(m.MarkedCount(), 0u);
  EXPECT_TRUE(m.MarkedRows().empty());
  EXPECT_TRUE(m.MarkedCols().empty());
  EXPECT_DOUBLE_EQ(m.Selectivity(), 0.0);
  EXPECT_FALSE(m.IsMarked(0, 0));
}

TEST(PredictionMatrixTest, MarkAndQuery) {
  PredictionMatrix m(3, 3);
  m.Mark(0, 1);
  m.Mark(2, 2);
  m.Finalize();
  EXPECT_TRUE(m.IsMarked(0, 1));
  EXPECT_TRUE(m.IsMarked(2, 2));
  EXPECT_FALSE(m.IsMarked(0, 0));
  EXPECT_FALSE(m.IsMarked(1, 1));
  EXPECT_EQ(m.MarkedCount(), 2u);
}

TEST(PredictionMatrixTest, DuplicateMarksCoalesce) {
  PredictionMatrix m(2, 2);
  m.Mark(1, 0);
  m.Mark(1, 0);
  m.Mark(1, 0);
  m.Finalize();
  EXPECT_EQ(m.MarkedCount(), 1u);
  EXPECT_EQ(m.RowEntries(1).size(), 1u);
}

TEST(PredictionMatrixTest, RowEntriesSorted) {
  PredictionMatrix m(1, 10);
  m.Mark(0, 7);
  m.Mark(0, 2);
  m.Mark(0, 5);
  m.Finalize();
  EXPECT_EQ(m.RowEntries(0), (std::vector<uint32_t>{2, 5, 7}));
}

TEST(PredictionMatrixTest, AllEntriesRowMajor) {
  PredictionMatrix m(3, 3);
  m.Mark(2, 0);
  m.Mark(0, 2);
  m.Mark(0, 1);
  m.Finalize();
  const std::vector<MatrixEntry> entries = m.AllEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (MatrixEntry{0, 1}));
  EXPECT_EQ(entries[1], (MatrixEntry{0, 2}));
  EXPECT_EQ(entries[2], (MatrixEntry{2, 0}));
}

TEST(PredictionMatrixTest, MarkedRowsAndCols) {
  PredictionMatrix m(4, 4);
  m.Mark(1, 2);
  m.Mark(1, 3);
  m.Mark(3, 0);
  m.Finalize();
  EXPECT_EQ(m.MarkedRows(), (std::vector<uint32_t>{1, 3}));
  EXPECT_EQ(m.MarkedCols(), (std::vector<uint32_t>{0, 2, 3}));
}

TEST(PredictionMatrixTest, Selectivity) {
  PredictionMatrix m(10, 10);
  for (uint32_t i = 0; i < 10; ++i) m.Mark(i, i);
  m.Finalize();
  EXPECT_DOUBLE_EQ(m.Selectivity(), 0.1);
}

TEST(PredictionMatrixTest, RefinalizeIsIdempotent) {
  PredictionMatrix m(2, 2);
  m.Mark(0, 0);
  m.Finalize();
  m.Finalize();
  EXPECT_EQ(m.MarkedCount(), 1u);
}

TEST(PredictionMatrixTest, ZeroSizedMatrix) {
  PredictionMatrix m(0, 0);
  m.Finalize();
  EXPECT_EQ(m.MarkedCount(), 0u);
  EXPECT_TRUE(m.AllEntries().empty());
  EXPECT_TRUE(m.MarkedRows().empty());
  EXPECT_DOUBLE_EQ(m.Selectivity(), 0.0);
}

}  // namespace
}  // namespace pmjoin
