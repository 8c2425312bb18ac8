#include "seq/edit_distance.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomString;

std::vector<uint8_t> Str(const char* s) {
  std::vector<uint8_t> v;
  for (const char* p = s; *p; ++p) v.push_back(static_cast<uint8_t>(*p));
  return v;
}

/// Exponential reference implementation for tiny strings.
size_t SlowEd(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  if (a.empty()) return b.size();
  if (b.empty()) return a.size();
  const size_t subst = SlowEd(a.subspan(1), b.subspan(1)) +
                       (a[0] != b[0] ? 1 : 0);
  const size_t del = SlowEd(a.subspan(1), b) + 1;
  const size_t ins = SlowEd(a, b.subspan(1)) + 1;
  return std::min({subst, del, ins});
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance(Str("kitten"), Str("sitting")), 3u);
  EXPECT_EQ(EditDistance(Str("flaw"), Str("lawn")), 2u);
  EXPECT_EQ(EditDistance(Str("abc"), Str("abc")), 0u);
  EXPECT_EQ(EditDistance(Str(""), Str("abc")), 3u);
  EXPECT_EQ(EditDistance(Str("abc"), Str("")), 3u);
}

TEST(EditDistanceTest, Symmetric) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomString(&rng, 1 + rng.Uniform(20), 4);
    const auto b = RandomString(&rng, 1 + rng.Uniform(20), 4);
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
  }
}

TEST(EditDistanceTest, MatchesExponentialReference) {
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = RandomString(&rng, rng.Uniform(7), 3);
    const auto b = RandomString(&rng, rng.Uniform(7), 3);
    EXPECT_EQ(EditDistance(a, b), SlowEd(a, b));
  }
}

TEST(EditDistanceTest, BoundedByLengthDifferenceAndMax) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = RandomString(&rng, 1 + rng.Uniform(30), 4);
    const auto b = RandomString(&rng, 1 + rng.Uniform(30), 4);
    const size_t ed = EditDistance(a, b);
    const size_t diff =
        a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
    EXPECT_GE(ed, diff);
    EXPECT_LE(ed, std::max(a.size(), b.size()));
  }
}

TEST(EditDistanceTest, TriangleInequality) {
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = RandomString(&rng, 5 + rng.Uniform(10), 4);
    const auto b = RandomString(&rng, 5 + rng.Uniform(10), 4);
    const auto c = RandomString(&rng, 5 + rng.Uniform(10), 4);
    EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
  }
}

TEST(EditDistanceTest, CountsCells) {
  OpCounters ops;
  EditDistance(Str("abcd"), Str("xy"), &ops);
  EXPECT_EQ(ops.edit_cells, 8u);  // 4 rows × 2 columns.
}

class BandedEditDistanceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BandedEditDistanceTest, AgreesWithFullWhenWithinBand) {
  const size_t k = GetParam();
  Rng rng(11 + k);
  size_t unequal_in_band = 0;
  for (int trial = 0; trial < 100; ++trial) {
    // Construct near pairs: substitute, insert, or delete a few symbols,
    // so in-band pairs of unequal length (where the band's edge cells
    // matter) occur too.
    auto a = RandomString(&rng, 20 + rng.Uniform(20), 4);
    auto b = a;
    const size_t edits = rng.Uniform(k + 2);
    for (size_t e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(b.size());
      const auto symbol = static_cast<uint8_t>(rng.Uniform(4));
      switch (rng.Uniform(3)) {
        case 0:
          b[pos] = symbol;
          break;
        case 1:
          b.insert(b.begin() + pos, symbol);
          break;
        default:
          b.erase(b.begin() + pos);
          break;
      }
    }
    const size_t full = EditDistance(a, b);
    const size_t banded = BandedEditDistance(a, b, k);
    if (full <= k) {
      EXPECT_EQ(banded, full);
      if (a.size() != b.size()) ++unequal_in_band;
    } else {
      EXPECT_GT(banded, k);
    }
  }
  if (k > 0) {
    EXPECT_GT(unequal_in_band, 0u);
  }
}

TEST_P(BandedEditDistanceTest, RandomPairs) {
  const size_t k = GetParam();
  Rng rng(23 + k);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomString(&rng, 1 + rng.Uniform(25), 4);
    const auto b = RandomString(&rng, 1 + rng.Uniform(25), 4);
    const size_t full = EditDistance(a, b);
    const size_t banded = BandedEditDistance(a, b, k);
    if (full <= k) {
      EXPECT_EQ(banded, full);
    } else {
      EXPECT_GT(banded, k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BandedEditDistanceTest,
                         ::testing::Values(0, 1, 2, 3, 5, 8));

TEST(BandedEditDistanceTest, LengthGapShortCircuit) {
  OpCounters ops;
  const auto a = Str("aaaaaaaaaa");
  const auto b = Str("aa");
  EXPECT_GT(BandedEditDistance(a, b, 3, &ops), 3u);
  EXPECT_EQ(ops.edit_cells, 0u);  // Rejected before any DP work.
}

TEST(BandedEditDistanceTest, CheaperThanFullForSmallK) {
  Rng rng(31);
  const auto a = RandomString(&rng, 200, 4);
  const auto b = RandomString(&rng, 200, 4);
  OpCounters full_ops, banded_ops;
  EditDistance(a, b, &full_ops);
  BandedEditDistance(a, b, 5, &banded_ops);
  EXPECT_LT(banded_ops.edit_cells, full_ops.edit_cells / 4);
}

TEST(BandedEditDistanceTest, IdenticalStringsZero) {
  Rng rng(37);
  const auto a = RandomString(&rng, 50, 4);
  EXPECT_EQ(BandedEditDistance(a, a, 0), 0u);
  EXPECT_EQ(BandedEditDistance(a, a, 5), 0u);
}

}  // namespace
}  // namespace pmjoin
