#include "geom/mbr.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomBox;
using testing_util::RandomPoint;

TEST(MbrTest, NewBoxIsEmpty) {
  Mbr m(3);
  EXPECT_TRUE(m.empty());
  EXPECT_DOUBLE_EQ(m.Area(), 0.0);
}

TEST(MbrTest, ExpandPointMakesDegenerateBox) {
  Mbr m(2);
  const std::vector<float> p{0.25f, 0.75f};
  m.Expand(p);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.lo(0), 0.25f);
  EXPECT_EQ(m.hi(0), 0.25f);
  EXPECT_TRUE(m.Contains(p));
}

TEST(MbrTest, ExpandCoversAllPoints) {
  Rng rng(3);
  Mbr m(4);
  std::vector<std::vector<float>> points;
  for (int i = 0; i < 30; ++i) {
    points.push_back(RandomPoint(&rng, 4));
    m.Expand(points.back());
  }
  for (const auto& p : points) EXPECT_TRUE(m.Contains(p));
}

TEST(MbrTest, ExpandWithBoxCoversBoth) {
  Rng rng(5);
  Mbr a = RandomBox(&rng, 3);
  const Mbr b = RandomBox(&rng, 3);
  Mbr u = a;
  u.Expand(b);
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(b));
}

TEST(MbrTest, ExtendGrowsSymmetrically) {
  Mbr m = Mbr::FromBounds({0.0f, 0.0f}, {1.0f, 2.0f});
  m.Extend(0.5f);
  EXPECT_FLOAT_EQ(m.lo(0), -0.5f);
  EXPECT_FLOAT_EQ(m.hi(0), 1.5f);
  EXPECT_FLOAT_EQ(m.lo(1), -0.5f);
  EXPECT_FLOAT_EQ(m.hi(1), 2.5f);
}

TEST(MbrTest, IntersectsSymmetric) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const Mbr a = RandomBox(&rng, 2, 0.5);
    const Mbr b = RandomBox(&rng, 2, 0.5);
    EXPECT_EQ(a.Intersects(b), b.Intersects(a));
  }
}

TEST(MbrTest, TouchingBoxesIntersect) {
  const Mbr a = Mbr::FromBounds({0.0f}, {1.0f});
  const Mbr b = Mbr::FromBounds({1.0f}, {2.0f});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_DOUBLE_EQ(a.MinDist(b, Norm::kL2), 0.0);
}

TEST(MbrTest, DisjointBoxesDoNotIntersect) {
  const Mbr a = Mbr::FromBounds({0.0f, 0.0f}, {1.0f, 1.0f});
  const Mbr b = Mbr::FromBounds({2.0f, 2.0f}, {3.0f, 3.0f});
  EXPECT_FALSE(a.Intersects(b));
}

TEST(MbrTest, IntersectionBox) {
  const Mbr a = Mbr::FromBounds({0.0f, 0.0f}, {2.0f, 2.0f});
  const Mbr b = Mbr::FromBounds({1.0f, 1.0f}, {3.0f, 3.0f});
  const Mbr i = a.Intersection(b);
  EXPECT_FALSE(i.empty());
  EXPECT_FLOAT_EQ(i.lo(0), 1.0f);
  EXPECT_FLOAT_EQ(i.hi(0), 2.0f);
  EXPECT_DOUBLE_EQ(i.Area(), 1.0);
}

TEST(MbrTest, IntersectionOfDisjointIsEmpty) {
  const Mbr a = Mbr::FromBounds({0.0f}, {1.0f});
  const Mbr b = Mbr::FromBounds({5.0f}, {6.0f});
  EXPECT_TRUE(a.Intersection(b).empty());
}

TEST(MbrTest, KnownMinDistL2) {
  const Mbr a = Mbr::FromBounds({0.0f, 0.0f}, {1.0f, 1.0f});
  const Mbr b = Mbr::FromBounds({4.0f, 5.0f}, {6.0f, 7.0f});
  // Gap is 3 in x, 4 in y.
  EXPECT_DOUBLE_EQ(a.MinDist(b, Norm::kL2), 5.0);
  EXPECT_DOUBLE_EQ(a.MinDist(b, Norm::kL1), 7.0);
  EXPECT_DOUBLE_EQ(a.MinDist(b, Norm::kLInf), 4.0);
}

class MbrNormTest : public ::testing::TestWithParam<Norm> {};

TEST_P(MbrNormTest, MinDistIsLowerBoundOnPointDistances) {
  // The Table-1 contract: for any points x in A and y in B,
  // MinDist(A, B) <= distance(x, y). This is the correctness backbone of
  // Theorem 1.
  Rng rng(11);
  const Norm n = GetParam();
  for (int trial = 0; trial < 100; ++trial) {
    Mbr a(3), b(3);
    std::vector<std::vector<float>> pa, pb;
    for (int i = 0; i < 8; ++i) {
      pa.push_back(RandomPoint(&rng, 3));
      a.Expand(pa.back());
      pb.push_back(RandomPoint(&rng, 3));
      b.Expand(pb.back());
    }
    const double lb = a.MinDist(b, n);
    for (const auto& x : pa) {
      for (const auto& y : pb) {
        EXPECT_LE(lb, VectorDistance(x, y, n) + 1e-6);
      }
    }
  }
}

TEST_P(MbrNormTest, MinDistZeroIffIntersecting) {
  Rng rng(13);
  const Norm n = GetParam();
  for (int trial = 0; trial < 200; ++trial) {
    const Mbr a = RandomBox(&rng, 2, 0.4);
    const Mbr b = RandomBox(&rng, 2, 0.4);
    if (a.Intersects(b)) {
      EXPECT_DOUBLE_EQ(a.MinDist(b, n), 0.0);
    } else {
      EXPECT_GT(a.MinDist(b, n), 0.0);
    }
  }
}

TEST_P(MbrNormTest, MinDistSymmetric) {
  Rng rng(17);
  const Norm n = GetParam();
  for (int trial = 0; trial < 100; ++trial) {
    const Mbr a = RandomBox(&rng, 3);
    const Mbr b = RandomBox(&rng, 3);
    EXPECT_DOUBLE_EQ(a.MinDist(b, n), b.MinDist(a, n));
  }
}

TEST(MbrTest, MinDistSquaredIsExactSquareOfMinDist) {
  // MinDistSquared accumulates the same gap terms in the same order as
  // MinDist(L2) and skips only the final sqrt, so squaring MinDist must
  // reproduce it to the last bit that sqrt preserves.
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t dims = 1 + trial % 6;
    const Mbr a = RandomBox(&rng, dims, 0.3);
    const Mbr b = RandomBox(&rng, dims, 0.3);
    const double d = a.MinDist(b, Norm::kL2);
    EXPECT_DOUBLE_EQ(a.MinDistSquared(b), d * d);
    EXPECT_DOUBLE_EQ(a.MinDistSquared(b), b.MinDistSquared(a));
  }
}

TEST_P(MbrNormTest, MinDistWithinMatchesThresholdComparison) {
  // MinDistWithin(o, n, t) must equal the norm's exact threshold
  // comparison — MinDistSquared <= t² for L2 (its documented boundary
  // semantics, no sqrt rounding), MinDist <= t otherwise — including at
  // thresholds placed exactly on the boundary.
  Rng rng(31);
  const Norm n = GetParam();
  const auto expect_within = [n](const Mbr& a, const Mbr& b, double t) {
    return n == Norm::kL2 ? a.MinDistSquared(b) <= t * t
                          : a.MinDist(b, n) <= t;
  };
  for (int trial = 0; trial < 500; ++trial) {
    const size_t dims = 1 + trial % 5;
    const Mbr a = RandomBox(&rng, dims, 0.3);
    const Mbr b = RandomBox(&rng, dims, 0.3);
    const double d = a.MinDist(b, n);
    // Random thresholds plus the boundary value and its neighborhood.
    for (const double t :
         {rng.UniformDouble() * 2.0, d, d * 0.999, d * 1.001}) {
      EXPECT_EQ(a.MinDistWithin(b, n, t), expect_within(a, b, t))
          << NormName(n) << " d=" << d << " t=" << t;
    }
    const auto p = RandomPoint(&rng, dims);
    const Mbr pb = Mbr::FromPoint(p);
    for (const double t :
         {rng.UniformDouble() * 2.0, a.MinDist(p, n)}) {
      EXPECT_EQ(a.MinDistWithin(std::span<const float>(p), n, t),
                expect_within(a, pb, t))
          << NormName(n) << " t=" << t;
    }
  }
}

TEST_P(MbrNormTest, ExtendedIntersectionEquivalentToGapTest) {
  // The §5.1 construction: MBRs extended by ε/2 intersect ⟺ every
  // per-dimension gap <= ε ⟺ MinDist_Linf <= ε. For Linf this is exactly
  // the marking condition; for other norms it is a necessary condition.
  Rng rng(19);
  const Norm n = GetParam();
  for (int trial = 0; trial < 300; ++trial) {
    const Mbr a = RandomBox(&rng, 2, 0.3);
    const Mbr b = RandomBox(&rng, 2, 0.3);
    const float eps = static_cast<float>(rng.UniformDouble() * 0.5);
    const bool extended_intersect =
        a.Extended(eps / 2).Intersects(b.Extended(eps / 2));
    if (a.MinDist(b, n) <= eps) {
      EXPECT_TRUE(extended_intersect);
    }
    if (n == Norm::kLInf && !extended_intersect) {
      EXPECT_GT(a.MinDist(b, Norm::kLInf), eps - 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, MbrNormTest,
                         ::testing::Values(Norm::kL1, Norm::kL2,
                                           Norm::kLInf),
                         [](const ::testing::TestParamInfo<Norm>& info) {
                           return NormName(info.param);
                         });

TEST(MbrTest, AreaAndMargin) {
  const Mbr m = Mbr::FromBounds({0.0f, 0.0f, 0.0f}, {1.0f, 2.0f, 3.0f});
  EXPECT_DOUBLE_EQ(m.Area(), 6.0);
}

TEST(MbrTest, CenterMidpoint) {
  const Mbr m = Mbr::FromBounds({0.0f, 2.0f}, {1.0f, 4.0f});
  EXPECT_DOUBLE_EQ(m.Center(0), 0.5);
  EXPECT_DOUBLE_EQ(m.Center(1), 3.0);
}

TEST(MbrTest, EqualityAndToString) {
  const Mbr a = Mbr::FromBounds({0.0f}, {1.0f});
  const Mbr b = Mbr::FromBounds({0.0f}, {1.0f});
  const Mbr c = Mbr::FromBounds({0.0f}, {2.0f});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_NE(a.ToString().find("0"), std::string::npos);
}

TEST(MbrTest, ContainsBoxTransitivity) {
  Rng rng(23);
  for (int trial = 0; trial < 100; ++trial) {
    const Mbr inner = RandomBox(&rng, 2, 0.1);
    Mbr outer = inner;
    outer.Extend(0.05f);
    EXPECT_TRUE(outer.Contains(inner));
    EXPECT_TRUE(outer.Intersects(inner));
  }
}

}  // namespace
}  // namespace pmjoin
