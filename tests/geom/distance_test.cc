#include "geom/distance.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomPoint;

TEST(DistanceTest, KnownL2) {
  const std::vector<float> a{0.0f, 0.0f};
  const std::vector<float> b{3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(VectorDistance(a, b, Norm::kL2), 5.0);
}

TEST(DistanceTest, KnownL1) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, 0.0f, 3.0f};
  EXPECT_DOUBLE_EQ(VectorDistance(a, b, Norm::kL1), 5.0);
}

TEST(DistanceTest, KnownLInf) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{4.0f, 0.0f};
  EXPECT_DOUBLE_EQ(VectorDistance(a, b, Norm::kLInf), 3.0);
}

TEST(DistanceTest, ZeroForIdenticalVectors) {
  const std::vector<float> a{0.5f, -1.5f, 2.25f};
  for (Norm n : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
    EXPECT_DOUBLE_EQ(VectorDistance(a, a, n), 0.0);
  }
}

class DistancePropertyTest : public ::testing::TestWithParam<Norm> {};

TEST_P(DistancePropertyTest, Symmetry) {
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomPoint(&rng, 4);
    const auto b = RandomPoint(&rng, 4);
    EXPECT_DOUBLE_EQ(VectorDistance(a, b, GetParam()),
                     VectorDistance(b, a, GetParam()));
  }
}

TEST_P(DistancePropertyTest, TriangleInequality) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomPoint(&rng, 4);
    const auto b = RandomPoint(&rng, 4);
    const auto c = RandomPoint(&rng, 4);
    const Norm n = GetParam();
    EXPECT_LE(VectorDistance(a, c, n),
              VectorDistance(a, b, n) + VectorDistance(b, c, n) + 1e-9);
  }
}

TEST_P(DistancePropertyTest, WithinDistanceMatchesThreshold) {
  Rng rng(17);
  const Norm n = GetParam();
  for (int trial = 0; trial < 500; ++trial) {
    const auto a = RandomPoint(&rng, 5);
    const auto b = RandomPoint(&rng, 5);
    const double eps = rng.UniformDouble() * 1.5;
    const double d = VectorDistance(a, b, n);
    if (std::fabs(d - eps) < 1e-6) continue;  // Avoid FP-boundary flakes.
    EXPECT_EQ(WithinDistance(a, b, n, eps), d <= eps)
        << "d=" << d << " eps=" << eps;
  }
}

TEST_P(DistancePropertyTest, NormOrdering) {
  // Linf <= L2 <= L1 pointwise.
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = RandomPoint(&rng, 6);
    const auto b = RandomPoint(&rng, 6);
    const double l1 = VectorDistance(a, b, Norm::kL1);
    const double l2 = VectorDistance(a, b, Norm::kL2);
    const double li = VectorDistance(a, b, Norm::kLInf);
    EXPECT_LE(li, l2 + 1e-9);
    EXPECT_LE(l2, l1 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, DistancePropertyTest,
                         ::testing::Values(Norm::kL1, Norm::kL2,
                                           Norm::kLInf),
                         [](const ::testing::TestParamInfo<Norm>& info) {
                           return NormName(info.param);
                         });

TEST(DistanceTest, NormNames) {
  EXPECT_EQ(NormName(Norm::kL1), "L1");
  EXPECT_EQ(NormName(Norm::kL2), "L2");
  EXPECT_EQ(NormName(Norm::kLInf), "Linf");
}

}  // namespace
}  // namespace pmjoin
