#include <optional>
#include <tuple>

#include <gtest/gtest.h>

#include "core/join_driver.h"
#include "core/reference_join.h"
#include "data/generators.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace {

/// Cross-product sweep: every (page size × buffer size × norm) cell must
/// give exactly the brute-force result for the core techniques. This is
/// the harness that catches layout- and capacity-dependent bugs (short
/// last pages, buffers smaller than a cluster, norm-specific MINDIST).
class VectorSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, Norm>> {
};

TEST_P(VectorSweepTest, CoreTechniquesMatchReference) {
  const auto [page_bytes, buffer, norm] = GetParam();
  SimulatedDisk disk;
  const VectorData r_raw = GenRoadNetwork(220, 5);
  const VectorData s_raw = GenRoadNetwork(180, 6);
  VectorDataset::Options options;
  options.page_size_bytes = page_bytes;
  auto r = VectorDataset::Build(&disk, "r", r_raw, options);
  auto s = VectorDataset::Build(&disk, "s", s_raw, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  const double eps = 0.05;
  CollectingSink ref;
  ReferenceVectorJoin(r_raw, s_raw, eps, norm, false, &ref);
  const auto expected = ref.Sorted();

  JoinDriver driver(&disk);
  for (Algorithm algorithm : {Algorithm::kNlj, Algorithm::kPmNlj,
                              Algorithm::kSc, Algorithm::kCc}) {
    JoinOptions jo;
    jo.algorithm = algorithm;
    jo.buffer_pages = buffer;
    jo.page_size_bytes = page_bytes;
    jo.norm = norm;
    CollectingSink sink;
    auto report = driver.RunVector(*r, *s, eps, jo, &sink);
    ASSERT_TRUE(report.ok()) << AlgorithmName(algorithm) << ": "
                             << report.status().ToString();
    EXPECT_EQ(sink.Sorted(), expected)
        << AlgorithmName(algorithm) << " page=" << page_bytes
        << " B=" << buffer << " norm=" << NormName(norm);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, VectorSweepTest,
    ::testing::Combine(::testing::Values(32u, 64u, 256u),
                       ::testing::Values(3u, 8u, 64u),
                       ::testing::Values(Norm::kL1, Norm::kL2,
                                         Norm::kLInf)),
    [](const ::testing::TestParamInfo<
        std::tuple<uint32_t, uint32_t, Norm>>& info) {
      return "page" + std::to_string(std::get<0>(info.param)) + "_B" +
             std::to_string(std::get<1>(info.param)) + "_" +
             NormName(std::get<2>(info.param));
    });

/// Window-length × buffer sweep for the string subsequence join.
class StringSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(StringSweepTest, CoreTechniquesMatchReference) {
  const auto [window, buffer] = GetParam();
  SimulatedDisk disk;
  std::vector<uint8_t> a = GenDnaSequence(420, 31, 0.5, 0.01);
  // Plant a self-repeat so results exist at every window length.
  for (size_t i = 0; i < 70; ++i) a[300 + i] = a[40 + i];
  auto store = StringSequenceStore::Build(&disk, "a", a, 4, window, 96);
  ASSERT_TRUE(store.ok());

  const uint32_t k = 1;
  CollectingSink ref;
  ReferenceStringJoin(a, a, window, k, true, &ref);
  const auto expected = ref.Sorted();
  ASSERT_FALSE(expected.empty());

  JoinDriver driver(&disk);
  for (Algorithm algorithm : {Algorithm::kNlj, Algorithm::kPmNlj,
                              Algorithm::kSc, Algorithm::kCc}) {
    JoinOptions jo;
    jo.algorithm = algorithm;
    jo.buffer_pages = buffer;
    jo.page_size_bytes = 96;
    CollectingSink sink;
    auto report = driver.RunString(*store, *store, k, jo, &sink);
    ASSERT_TRUE(report.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(sink.Sorted(), expected)
        << AlgorithmName(algorithm) << " L=" << window << " B=" << buffer;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StringSweepTest,
    ::testing::Combine(::testing::Values(8u, 16u, 40u),
                       ::testing::Values(3u, 16u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>&
           info) {
      // Built with += to sidestep GCC 12's -Wrestrict false positive on
      // operator+(const char*, std::string&&) (GCC PR 105651).
      std::string name = "L";
      name += std::to_string(std::get<0>(info.param));
      name += "_B";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

/// PAA-dims × window sweep for the time-series subsequence join: the
/// feature-space threshold conversion must stay lossless for any (L, f).
class TimeSeriesSweepTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(TimeSeriesSweepTest, CoreTechniquesMatchReference) {
  const auto [window, paa] = GetParam();
  if (window % paa != 0) GTEST_SKIP();
  SimulatedDisk disk;
  const std::vector<float> x = GenRandomWalk(350, 37);
  auto store = TimeSeriesStore::Build(&disk, "x", x, paa, window,
                                      70 * sizeof(float));
  ASSERT_TRUE(store.ok());

  const double eps = 1.0;
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x, x, window, eps, true, &ref);
  const auto expected = ref.Sorted();

  JoinDriver driver(&disk);
  for (Algorithm algorithm : {Algorithm::kNlj, Algorithm::kPmNlj,
                              Algorithm::kSc, Algorithm::kCc}) {
    JoinOptions jo;
    jo.algorithm = algorithm;
    jo.buffer_pages = 10;
    CollectingSink sink;
    auto report = driver.RunTimeSeries(*store, *store, eps, jo, &sink);
    ASSERT_TRUE(report.ok()) << AlgorithmName(algorithm);
    EXPECT_EQ(sink.Sorted(), expected)
        << AlgorithmName(algorithm) << " L=" << window << " f=" << paa;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TimeSeriesSweepTest,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<std::tuple<uint32_t, uint32_t>>&
           info) {
      std::string name = "L";
      name += std::to_string(std::get<0>(info.param));
      name += "_f";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

}  // namespace
}  // namespace pmjoin
