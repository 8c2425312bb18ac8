#include "baselines/ego.h"

#include <gtest/gtest.h>

#include "core/reference_join.h"
#include "data/generators.h"
#include "io/simulated_disk.h"
#include "join_test_util.h"

namespace pmjoin {
namespace {

using testing_util::SmallVectorJoin;

// The page sizes the tests build their data with; EGO pages its sorted
// copies at the same size.
constexpr uint32_t kFixturePageBytes = 64;  // SmallVectorJoin's default.
constexpr uint32_t kSeriesPageBytes = 60 * sizeof(float);
constexpr uint32_t kStringPageBytes = 64;

TEST(EgoVectorTest, MatchesReferenceJoin) {
  SmallVectorJoin fixture(250, 200, 3, 0.06);
  BufferPool pool(&fixture.disk(), 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinVectors(fixture.r(), fixture.s(), false, fixture.eps(),
                             fixture.norm(), kFixturePageBytes,
                             &fixture.disk(), &pool, &sink, nullptr)
                  .ok());
  EXPECT_EQ(sink.Sorted(), fixture.Expected());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST(EgoVectorTest, SelfJoinMatchesReference) {
  SimulatedDisk disk;
  const VectorData data = GenRoadNetwork(200, 7);
  VectorDataset::Options options;
  options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "r", data, options);
  ASSERT_TRUE(ds.ok());

  BufferPool pool(&disk, 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinVectors(*ds, *ds, true, 0.05, Norm::kL2,
                             options.page_size_bytes, &disk, &pool, &sink,
                             nullptr)
                  .ok());
  CollectingSink ref;
  ReferenceVectorJoin(data, data, 0.05, Norm::kL2, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST(EgoVectorTest, L1AndLInfNorms) {
  for (Norm norm : {Norm::kL1, Norm::kLInf}) {
    SmallVectorJoin fixture(150, 150, 11, 0.05, 64, norm);
    BufferPool pool(&fixture.disk(), 16);
    CollectingSink sink;
    ASSERT_TRUE(EgoJoinVectors(fixture.r(), fixture.s(), false,
                               fixture.eps(), norm, kFixturePageBytes,
                               &fixture.disk(), &pool, &sink, nullptr)
                    .ok());
    EXPECT_EQ(sink.Sorted(), fixture.Expected());
  }
}

TEST(EgoVectorTest, ChargesSortIo) {
  SmallVectorJoin fixture(300, 300, 13, 0.03);
  BufferPool pool(&fixture.disk(), 8);
  CountingSink sink;
  const IoStats before = fixture.disk().stats();
  ASSERT_TRUE(EgoJoinVectors(fixture.r(), fixture.s(), false, fixture.eps(),
                             fixture.norm(), kFixturePageBytes,
                             &fixture.disk(), &pool, &sink, nullptr)
                  .ok());
  const IoStats delta = fixture.disk().stats().Delta(before);
  // External sorting writes at least one full copy of both datasets.
  EXPECT_GT(delta.pages_written, 0u);
  EXPECT_GT(delta.pages_read,
            uint64_t(fixture.input().r_pages) + fixture.input().s_pages);
}

TEST(EgoTimeSeriesTest, MatchesReference) {
  SimulatedDisk disk;
  const std::vector<float> x = GenRandomWalk(400, 17);
  const std::vector<float> y = GenRandomWalk(350, 18);
  const uint32_t L = 16, f = 4;
  auto xs = TimeSeriesStore::Build(&disk, "x", x, f, L, kSeriesPageBytes);
  auto ys = TimeSeriesStore::Build(&disk, "y", y, f, L, kSeriesPageBytes);
  ASSERT_TRUE(xs.ok());
  ASSERT_TRUE(ys.ok());

  const double eps = 2.0;
  BufferPool pool(&disk, 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinSequence(*xs, *ys, false, eps, kSeriesPageBytes, &disk,
                              &pool, &sink, nullptr)
                  .ok());
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x, y, L, eps, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST(EgoTimeSeriesTest, SelfJoinMatchesReference) {
  SimulatedDisk disk;
  const std::vector<float> x = GenRandomWalk(500, 19);
  const uint32_t L = 16, f = 4;
  auto xs = TimeSeriesStore::Build(&disk, "x", x, f, L, kSeriesPageBytes);
  ASSERT_TRUE(xs.ok());
  BufferPool pool(&disk, 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinSequence(*xs, *xs, true, 1.0, kSeriesPageBytes, &disk,
                              &pool, &sink, nullptr)
                  .ok());
  CollectingSink ref;
  ReferenceTimeSeriesJoin(x, x, L, 1.0, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

TEST(EgoStringTest, MatchesReference) {
  SimulatedDisk disk;
  std::vector<uint8_t> a, b;
  GenDnaPair(500, 400, 23, &a, &b, 0.5, 0.01);
  // Plant a homologous chunk so the cross join is non-empty (tiny test
  // sequences occupy single, different composition regimes).
  for (size_t i = 0; i < 60; ++i) b[100 + i] = a[200 + i];
  const uint32_t L = 12, k = 2;
  auto as = StringSequenceStore::Build(&disk, "a", a, 4, L, kStringPageBytes);
  auto bs = StringSequenceStore::Build(&disk, "b", b, 4, L, kStringPageBytes);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(bs.ok());

  BufferPool pool(&disk, 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinSequence(*as, *bs, false, k, kStringPageBytes, &disk,
                              &pool, &sink, nullptr)
                  .ok());
  CollectingSink ref;
  ReferenceStringJoin(a, b, L, k, false, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
  EXPECT_GT(sink.pairs().size(), 0u);
}

TEST(EgoStringTest, SelfJoinMatchesReference) {
  SimulatedDisk disk;
  const std::vector<uint8_t> a = GenDnaSequence(600, 29, 0.5, 0.01);
  const uint32_t L = 12, k = 1;
  auto as = StringSequenceStore::Build(&disk, "a", a, 4, L, kStringPageBytes);
  ASSERT_TRUE(as.ok());
  BufferPool pool(&disk, 16);
  CollectingSink sink;
  ASSERT_TRUE(EgoJoinSequence(*as, *as, true, k, kStringPageBytes, &disk,
                              &pool, &sink, nullptr)
                  .ok());
  CollectingSink ref;
  ReferenceStringJoin(a, a, L, k, true, &ref);
  EXPECT_EQ(sink.Sorted(), ref.Sorted());
}

TEST(EgoSequenceTest, MaterializationCostsExceedVectorEquivalent) {
  // §9.2's observation: EGO on sequences pays for materialized feature
  // files plus random verification reads.
  SimulatedDisk disk;
  const std::vector<uint8_t> a = GenDnaSequence(2000, 31, 0.5, 0.01);
  auto as = StringSequenceStore::Build(&disk, "a", a, 4, 12, kStringPageBytes);
  ASSERT_TRUE(as.ok());
  BufferPool pool(&disk, 8);
  CountingSink sink;
  const IoStats before = disk.stats();
  ASSERT_TRUE(EgoJoinSequence(*as, *as, true, 1, kStringPageBytes, &disk,
                              &pool, &sink, nullptr)
                  .ok());
  const IoStats delta = disk.stats().Delta(before);
  // Far more I/O than one scan of the store.
  EXPECT_GT(delta.pages_read + delta.pages_written,
            4u * as->layout().NumPages());
}

TEST(EgoSequenceTest, VerificationPinFailureIsReturned) {
  // The sweep holds two frames and each verification pins two original
  // pages: at B = 3 the join must fail with BufferFull (not drop the
  // candidate) and release every pin; at B = 4 it is complete.
  SimulatedDisk disk;
  const std::vector<uint8_t> a = GenDnaSequence(600, 29, 0.5, 0.01);
  const std::vector<float> x = GenRandomWalk(500, 19);
  auto as = StringSequenceStore::Build(&disk, "a", a, 4, 12, kStringPageBytes);
  auto xs = TimeSeriesStore::Build(&disk, "x", x, 4, 16, kSeriesPageBytes);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(xs.ok());
  CollectingSink dna_ref, walk_ref;
  ReferenceStringJoin(a, a, 12, 1, true, &dna_ref);
  ReferenceTimeSeriesJoin(x, x, 16, 1.0, true, &walk_ref);
  ASSERT_GT(dna_ref.pairs().size(), 0u);
  ASSERT_GT(walk_ref.pairs().size(), 0u);
  for (const uint32_t buffer : {3u, 4u}) {
    BufferPool pool(&disk, buffer);
    CollectingSink dna, walk;
    const Status dna_st = EgoJoinSequence(*as, *as, true, 1, kStringPageBytes,
                                          &disk, &pool, &dna, nullptr);
    EXPECT_TRUE(pool.CheckQuiescent().ok());
    const Status walk_st =
        EgoJoinSequence(*xs, *xs, true, 1.0, kSeriesPageBytes, &disk, &pool,
                        &walk, nullptr);
    EXPECT_TRUE(pool.CheckQuiescent().ok());
    if (buffer == 3) {
      EXPECT_TRUE(dna_st.IsBufferFull()) << dna_st.ToString();
      EXPECT_TRUE(walk_st.IsBufferFull()) << walk_st.ToString();
    } else {
      ASSERT_TRUE(dna_st.ok()) << dna_st.ToString();
      ASSERT_TRUE(walk_st.ok()) << walk_st.ToString();
      EXPECT_EQ(dna.Sorted(), dna_ref.Sorted());
      EXPECT_EQ(walk.Sorted(), walk_ref.Sorted());
    }
  }
}

}  // namespace
}  // namespace pmjoin
