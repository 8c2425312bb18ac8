#include "core/plane_sweep.h"

#include <algorithm>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomBox;

std::vector<Mbr> RandomBoxes(Rng* rng, size_t n, size_t dims,
                             double max_side) {
  std::vector<Mbr> boxes;
  boxes.reserve(n);
  for (size_t i = 0; i < n; ++i)
    boxes.push_back(RandomBox(rng, dims, max_side));
  return boxes;
}

/// Brute-force the expected marks.
std::vector<MatrixEntry> BruteMarks(const std::vector<Mbr>& r,
                                    const std::vector<Mbr>& s,
                                    double threshold, Norm norm) {
  std::vector<MatrixEntry> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (r[i].MinDist(s[j], norm) <= threshold) {
        out.push_back(MatrixEntry{i, j});
      }
    }
  }
  return out;
}

struct SweepCase {
  size_t nr, ns, dims;
  double threshold;
  Norm norm;
};

// Names each case by its fields. gtest's default printer would dump the
// struct's bytes into the ctest name, padding included, so the names
// would differ from build to build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.nr << 'x' << c.ns << "_d" << c.dims << "_eps" << c.threshold
      << '_' << NormName(c.norm);
}

class FlatSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(FlatSweepTest, MatchesBruteForce) {
  const SweepCase& c = GetParam();
  Rng rng(101 + c.nr + c.dims);
  const auto r = RandomBoxes(&rng, c.nr, c.dims, 0.15);
  const auto s = RandomBoxes(&rng, c.ns, c.dims, 0.15);
  const PredictionMatrix matrix =
      BuildPredictionMatrixFlat(r, s, c.threshold, c.norm, nullptr);
  EXPECT_EQ(matrix.AllEntries(), BruteMarks(r, s, c.threshold, c.norm));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FlatSweepTest,
    ::testing::Values(SweepCase{1, 1, 2, 0.1, Norm::kL2},
                      SweepCase{50, 40, 2, 0.05, Norm::kL2},
                      SweepCase{50, 40, 2, 0.05, Norm::kL1},
                      SweepCase{50, 40, 2, 0.05, Norm::kLInf},
                      SweepCase{80, 80, 3, 0.2, Norm::kL2},
                      SweepCase{30, 60, 5, 0.3, Norm::kL2},
                      SweepCase{100, 100, 2, 0.0, Norm::kL2},
                      SweepCase{60, 60, 2, 5.0, Norm::kL2}));

TEST(FlatSweepTest, ZeroThresholdMeansTouchingOnly) {
  const std::vector<Mbr> r{Mbr::FromBounds({0.0f}, {1.0f})};
  const std::vector<Mbr> s{Mbr::FromBounds({1.0f}, {2.0f}),
                           Mbr::FromBounds({1.5f}, {2.0f})};
  const PredictionMatrix matrix =
      BuildPredictionMatrixFlat(r, s, 0.0, Norm::kL2, nullptr);
  EXPECT_TRUE(matrix.IsMarked(0, 0));
  EXPECT_FALSE(matrix.IsMarked(0, 1));
}

TEST(FlatSweepTest, CountsMbrTests) {
  Rng rng(7);
  const auto r = RandomBoxes(&rng, 40, 2, 0.1);
  const auto s = RandomBoxes(&rng, 40, 2, 0.1);
  OpCounters ops;
  BuildPredictionMatrixFlat(r, s, 0.05, Norm::kL2, &ops);
  EXPECT_GT(ops.mbr_tests, 0u);
  // The sweep must beat the full cross product on sparse data.
  EXPECT_LT(ops.mbr_tests, 40u * 40u);
}

TEST(FilterChildrenTest, NeverRemovesTruePairs) {
  // Fig. 2 safety: any (i, j) with MinDist <= threshold must survive.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto r = RandomBoxes(&rng, 20, 2, 0.2);
    const auto s = RandomBoxes(&rng, 20, 2, 0.2);
    const double threshold = rng.UniformDouble() * 0.2;

    std::vector<SweepItem> ri, si;
    for (uint32_t i = 0; i < r.size(); ++i)
      ri.push_back(SweepItem{r[i], i});
    for (uint32_t j = 0; j < s.size(); ++j)
      si.push_back(SweepItem{s[j], j});
    std::vector<uint32_t> keep_r, keep_s;
    FilterChildren(ri, si, threshold, 5, nullptr, &keep_r, &keep_s);

    for (uint32_t i = 0; i < r.size(); ++i) {
      for (uint32_t j = 0; j < s.size(); ++j) {
        if (r[i].MinDist(s[j], Norm::kLInf) <= threshold) {
          EXPECT_TRUE(std::find(keep_r.begin(), keep_r.end(), i) !=
                      keep_r.end())
              << "filter dropped live r item " << i;
          EXPECT_TRUE(std::find(keep_s.begin(), keep_s.end(), j) !=
                      keep_s.end())
              << "filter dropped live s item " << j;
        }
      }
    }
  }
}

TEST(FilterChildrenTest, RemovesFarItems) {
  // The Fig. 2 example shape: items far from the overlap region get cut.
  std::vector<SweepItem> r, s;
  // R children spread over [0, 10]; S children over [9, 20].
  for (uint32_t i = 0; i < 10; ++i) {
    const float x = i * 1.0f;
    r.push_back(SweepItem{Mbr::FromBounds({x, 0.0f}, {x + 0.5f, 1.0f}), i});
  }
  for (uint32_t j = 0; j < 10; ++j) {
    const float x = 9.0f + j * 1.0f;
    s.push_back(SweepItem{Mbr::FromBounds({x, 0.0f}, {x + 0.5f, 1.0f}), j});
  }
  std::vector<uint32_t> keep_r, keep_s;
  FilterChildren(r, s, 0.1, 5, nullptr, &keep_r, &keep_s);
  // Only the rightmost R children and leftmost S children can interact.
  EXPECT_LT(keep_r.size(), 3u);
  EXPECT_LT(keep_s.size(), 3u);
}

TEST(FilterChildrenTest, DisjointSetsFilterToNothing) {
  std::vector<SweepItem> r{{Mbr::FromBounds({0.0f}, {1.0f}), 0}};
  std::vector<SweepItem> s{{Mbr::FromBounds({5.0f}, {6.0f}), 0}};
  std::vector<uint32_t> keep_r, keep_s;
  FilterChildren(r, s, 0.5, 5, nullptr, &keep_r, &keep_s);
  EXPECT_TRUE(keep_r.empty());
  EXPECT_TRUE(keep_s.empty());
}

struct HierCase {
  size_t nr, ns;
  double threshold;
  Norm norm;
  uint32_t filter_iters;
};

class HierarchicalSweepTest : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierarchicalSweepTest, EquivalentToFlatConstruction) {
  // The paper's Fig. 1 algorithm must produce exactly the same matrix as
  // the leaf-level definition, for any filter setting.
  const HierCase& c = GetParam();
  Rng rng(211 + c.nr + c.filter_iters);
  const auto r = RandomBoxes(&rng, c.nr, 2, 0.05);
  const auto s = RandomBoxes(&rng, c.ns, 2, 0.05);

  RStarTree::Options small;
  small.max_entries = 8;
  std::vector<RStarTree::Entry> re, se;
  for (uint32_t i = 0; i < r.size(); ++i)
    re.push_back(RStarTree::Entry{r[i], i});
  for (uint32_t j = 0; j < s.size(); ++j)
    se.push_back(RStarTree::Entry{s[j], j});
  const RStarTree rt = RStarTree::BulkLoadStr(2, re, small);
  const RStarTree st = RStarTree::BulkLoadStr(2, se, small);

  const PredictionMatrix flat =
      BuildPredictionMatrixFlat(r, s, c.threshold, c.norm, nullptr);
  const PredictionMatrix hier = BuildPredictionMatrixHierarchical(
      rt, st, static_cast<uint32_t>(r.size()),
      static_cast<uint32_t>(s.size()), c.threshold, c.norm, c.filter_iters,
      nullptr);
  EXPECT_EQ(hier.AllEntries(), flat.AllEntries());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, HierarchicalSweepTest,
    ::testing::Values(HierCase{100, 100, 0.05, Norm::kL2, 5},
                      HierCase{100, 100, 0.05, Norm::kL2, 0},
                      HierCase{100, 100, 0.05, Norm::kL2, 1},
                      HierCase{300, 200, 0.02, Norm::kL1, 5},
                      HierCase{300, 200, 0.02, Norm::kLInf, 5},
                      HierCase{64, 500, 0.1, Norm::kL2, 5},
                      HierCase{5, 5, 0.3, Norm::kL2, 5}));

TEST(HierarchicalSweepTest, FilterReducesMbrTests) {
  Rng rng(17);
  const auto r = RandomBoxes(&rng, 2000, 2, 0.01);
  const auto s = RandomBoxes(&rng, 2000, 2, 0.01);
  RStarTree::Options small;
  small.max_entries = 16;
  std::vector<RStarTree::Entry> re, se;
  for (uint32_t i = 0; i < r.size(); ++i)
    re.push_back(RStarTree::Entry{r[i], i});
  for (uint32_t j = 0; j < s.size(); ++j)
    se.push_back(RStarTree::Entry{s[j], j});
  const RStarTree rt = RStarTree::BulkLoadStr(2, re, small);
  const RStarTree st = RStarTree::BulkLoadStr(2, se, small);

  OpCounters flat_ops, hier_ops;
  BuildPredictionMatrixFlat(r, s, 0.01, Norm::kL2, &flat_ops);
  BuildPredictionMatrixHierarchical(rt, st, 2000, 2000, 0.01, Norm::kL2, 5,
                                    &hier_ops);
  // The hierarchy prunes whole subtree pairs; it must not do more box
  // tests than the flat sweep does on this clustered data.
  EXPECT_LT(hier_ops.mbr_tests, flat_ops.mbr_tests);
}

}  // namespace
}  // namespace pmjoin
