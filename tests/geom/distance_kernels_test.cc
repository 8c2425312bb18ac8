#include "geom/distance_kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/distance.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomPoint;

/// A padded record block built from `count` random points: rows are
/// `PaddedWidth(dims)` floats apart with the padding zero-filled, matching
/// VectorDataset::PageBlock's layout guarantee.
struct TestBlock {
  std::vector<float> storage;
  std::vector<std::vector<float>> points;
  kernels::BlockView view;

  TestBlock(Rng* rng, uint32_t count, size_t dims) {
    const uint32_t stride = kernels::PaddedWidth(dims);
    storage.assign(size_t(count) * stride, 0.0f);
    for (uint32_t j = 0; j < count; ++j) {
      points.push_back(RandomPoint(rng, dims));
      std::copy(points.back().begin(), points.back().end(),
                storage.begin() + size_t(j) * stride);
    }
    view = kernels::BlockView{storage.data(), count, stride};
  }
};

/// Query padded out to the block's stride (zero tail).
std::vector<float> PaddedQuery(const std::vector<float>& q,
                               uint32_t stride) {
  std::vector<float> padded(stride, 0.0f);
  std::copy(q.begin(), q.end(), padded.begin());
  return padded;
}

class KernelDecisionTest : public ::testing::TestWithParam<Norm> {};

/// The determinism contract: for every row, the kernel's bit equals the
/// scalar double-precision reference's bit — including eps values placed
/// exactly at sampled pair distances, where the float fast path must fall
/// back to the exact comparison.
TEST_P(KernelDecisionTest, MaskMatchesScalarReferenceAcrossDims) {
  const Norm norm = GetParam();
  Rng rng(101);
  for (const size_t dims :
       {1u, 2u, 3u, 4u, 5u, 8u, 13u, 16u, 33u, 64u, 70u, 129u}) {
    const TestBlock block(&rng, 97, dims);
    for (int trial = 0; trial < 8; ++trial) {
      const auto query = RandomPoint(&rng, dims);
      const auto padded = PaddedQuery(query, block.view.stride);
      // Mix random thresholds with exact pair distances (boundary case:
      // distance(q, row) == eps must be "within", as in the reference).
      double eps;
      if (trial % 2 == 0) {
        eps = rng.UniformDouble() * (norm == Norm::kL1 ? dims * 0.3 : 1.5);
      } else {
        const size_t j = rng.Uniform(block.view.count);
        eps = VectorDistance(query, block.points[j], norm);
      }
      std::vector<uint8_t> mask(block.view.count, 0xFF);
      const uint32_t n = kernels::WithinMaskBlock(
          padded.data(), block.view, dims, norm, eps, mask.data());
      uint32_t expect_count = 0;
      for (uint32_t j = 0; j < block.view.count; ++j) {
        const bool expect =
            WithinDistance(query, block.points[j], norm, eps);
        expect_count += expect;
        EXPECT_EQ(mask[j] != 0, expect)
            << NormName(norm) << " dims=" << dims << " row=" << j
            << " eps=" << eps;
        EXPECT_LE(mask[j], 1) << "mask must be 0/1";
      }
      EXPECT_EQ(n, expect_count);
    }
  }
}

/// kNN candidate pass at every dispatched width: a row is dropped only
/// when its exact statistic exceeds the bound, and every kept row carries
/// the exact scalar statistic.
TEST_P(KernelDecisionTest, KnnCandidatesMatchScalarReferenceAcrossDims) {
  const Norm norm = GetParam();
  Rng rng(163);
  for (const size_t dims : {1u, 2u, 3u, 4u, 6u, 8u, 13u, 64u, 70u}) {
    const TestBlock block(&rng, 61, dims);
    for (int trial = 0; trial < 6; ++trial) {
      const auto query = RandomPoint(&rng, dims);
      const auto padded = PaddedQuery(query, block.view.stride);
      // Bounds placed exactly on a row's statistic (the boundary row must
      // survive) and at random.
      const double bound =
          trial % 2 == 0
              ? DistanceStat(query, block.points[rng.Uniform(61)], norm)
              : rng.UniformDouble() * DistanceStat(query, block.points[0],
                                                   norm);
      std::vector<double> stats(block.view.count);
      kernels::KnnCandidateBlock(padded.data(), block.view, dims, norm, bound,
                                 stats.data());
      for (uint32_t j = 0; j < block.view.count; ++j) {
        const double exact = DistanceStat(query, block.points[j], norm);
        if (std::isinf(stats[j])) {
          EXPECT_GT(exact, bound) << NormName(norm) << " dims=" << dims
                                  << " row=" << j << " dropped";
        } else {
          EXPECT_EQ(stats[j], exact)
              << NormName(norm) << " dims=" << dims << " row=" << j;
        }
      }
    }
  }
}

TEST_P(KernelDecisionTest, UnpaddedBlockMatchesScalarReference) {
  // stride == dims (EGO-style tight rows, no padding) exercises the
  // generic runtime-width path for every dims value.
  const Norm norm = GetParam();
  Rng rng(211);
  for (const size_t dims : {2u, 5u, 8u, 31u, 64u, 100u}) {
    std::vector<float> rows(60 * dims);
    for (float& v : rows) v = static_cast<float>(rng.UniformDouble());
    const kernels::BlockView view{rows.data(), 60,
                                  static_cast<uint32_t>(dims)};
    const auto query = RandomPoint(&rng, dims);
    const double eps = rng.UniformDouble() * (norm == Norm::kL1 ? 8.0 : 1.0);
    std::vector<uint8_t> mask(view.count);
    kernels::WithinMaskBlock(query.data(), view, dims, norm, eps,
                             mask.data());
    for (uint32_t j = 0; j < view.count; ++j) {
      const std::span<const float> row(rows.data() + size_t(j) * dims, dims);
      EXPECT_EQ(mask[j] != 0, WithinDistance(query, row, norm, eps))
          << NormName(norm) << " dims=" << dims << " row=" << j;
    }
  }
}

TEST_P(KernelDecisionTest, WithinOneMatchesScalarReference) {
  const Norm norm = GetParam();
  Rng rng(307);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t dims = 1 + rng.Uniform(80);
    const auto a = RandomPoint(&rng, dims);
    const auto b = RandomPoint(&rng, dims);
    const double eps = trial % 3 == 0 ? VectorDistance(a, b, norm)
                                      : rng.UniformDouble() * 2.0;
    EXPECT_EQ(kernels::WithinOne(a.data(), b.data(), dims, norm, eps),
              WithinDistance(a, b, norm, eps))
        << NormName(norm) << " dims=" << dims << " eps=" << eps;
  }
}

TEST_P(KernelDecisionTest, EmptyBlockReturnsZero) {
  const Norm norm = GetParam();
  const float query[8] = {0.0f};
  const kernels::BlockView empty{nullptr, 0, 8};
  uint8_t mask[1] = {0xAB};
  EXPECT_EQ(kernels::WithinMaskBlock(query, empty, 8, norm, 1.0, mask), 0u);
  EXPECT_EQ(mask[0], 0xAB) << "mask untouched for an empty block";
}

TEST_P(KernelDecisionTest, SingleRecordBlock) {
  const Norm norm = GetParam();
  Rng rng(401);
  const size_t dims = 16;
  const TestBlock block(&rng, 1, dims);
  const auto query = RandomPoint(&rng, dims);
  const auto padded = PaddedQuery(query, block.view.stride);
  const double d = VectorDistance(query, block.points[0], norm);
  uint8_t mask = 0;
  EXPECT_EQ(kernels::WithinMaskBlock(padded.data(), block.view, dims, norm,
                                     d * 1.01, &mask),
            1u);
  EXPECT_EQ(mask, 1);
  EXPECT_EQ(kernels::WithinMaskBlock(padded.data(), block.view, dims, norm,
                                     d * 0.99, &mask),
            0u);
  EXPECT_EQ(mask, 0);
}

TEST_P(KernelDecisionTest, ZeroEpsilonAcceptsOnlyIdenticalRecords) {
  const Norm norm = GetParam();
  Rng rng(503);
  const size_t dims = 33;
  TestBlock block(&rng, 10, dims);
  // Make row 4 an exact copy of the query.
  const auto query = RandomPoint(&rng, dims);
  std::copy(query.begin(), query.end(),
            block.storage.begin() + size_t(4) * block.view.stride);
  const auto padded = PaddedQuery(query, block.view.stride);
  std::vector<uint8_t> mask(block.view.count);
  EXPECT_EQ(kernels::WithinMaskBlock(padded.data(), block.view, dims, norm,
                                     0.0, mask.data()),
            1u);
  EXPECT_EQ(mask[4], 1);
}

INSTANTIATE_TEST_SUITE_P(AllNorms, KernelDecisionTest,
                         ::testing::Values(Norm::kL1, Norm::kL2,
                                           Norm::kLInf),
                         [](const ::testing::TestParamInfo<Norm>& info) {
                           return NormName(info.param);
                         });

TEST(KernelLayoutTest, PaddedWidthRoundsUpToLaneMultiples) {
  // Below one lane: the next power of two (a 2-d point stays 2 floats).
  EXPECT_EQ(kernels::PaddedWidth(1), 1u);
  EXPECT_EQ(kernels::PaddedWidth(2), 2u);
  EXPECT_EQ(kernels::PaddedWidth(3), 4u);
  EXPECT_EQ(kernels::PaddedWidth(4), 4u);
  EXPECT_EQ(kernels::PaddedWidth(5), 8u);
  EXPECT_EQ(kernels::PaddedWidth(7), 8u);
  // From one lane on: the next lane multiple.
  EXPECT_EQ(kernels::PaddedWidth(8), 8u);
  EXPECT_EQ(kernels::PaddedWidth(9), 16u);
  EXPECT_EQ(kernels::PaddedWidth(16), 16u);
  EXPECT_EQ(kernels::PaddedWidth(60), 64u);
  EXPECT_EQ(kernels::PaddedWidth(64), 64u);
  EXPECT_EQ(kernels::PaddedWidth(65), 72u);
  for (size_t d = 1; d <= 200; ++d) {
    const uint32_t width = kernels::PaddedWidth(d);
    EXPECT_GE(width, d);
    if (d < kernels::kLaneFloats) {
      EXPECT_TRUE(std::has_single_bit(width)) << d;
      EXPECT_LT(width, 2 * d) << d;
    } else {
      EXPECT_EQ(width % kernels::kLaneFloats, 0u) << d;
      EXPECT_LT(width, d + kernels::kLaneFloats) << d;
    }
  }
}

}  // namespace
}  // namespace pmjoin
