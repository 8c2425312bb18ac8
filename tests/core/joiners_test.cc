#include "core/joiners.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/simulated_disk.h"
#include "seq/sequence_store.h"

namespace pmjoin {
namespace {

/// The ChargeScanned contract (DESIGN.md "simulation shortcut"): for a
/// page pair the prediction matrix would leave unmarked — i.e. one that
/// produces no results and triggers no verification — ChargeScanned must
/// equal exactly what JoinPages charges. We manufacture distant page
/// pairs and compare.

TEST(VectorJoinerAccountingTest, ScanChargeMatchesResultlessExecution) {
  SimulatedDisk disk;
  // Two clusters far apart: join with tiny eps has no cross matches.
  VectorData far_a = GenUniform(200, 3, 1);
  VectorData far_b = GenUniform(200, 3, 2);
  for (float& v : far_b.values) v += 100.0f;
  VectorDataset::Options options;
  options.page_size_bytes = 96;  // 8 records per page.
  auto r = VectorDataset::Build(&disk, "a", far_a, options);
  auto s = VectorDataset::Build(&disk, "b", far_b, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  VectorPairJoiner joiner(&*r, &*s, 0.01, Norm::kL2, false);

  for (uint32_t p = 0; p < r->num_pages(); p += 7) {
    for (uint32_t q = 0; q < s->num_pages(); q += 5) {
      OpCounters executed, charged;
      CountingSink sink;
      joiner.JoinPages(p, q, &sink, &executed);
      joiner.ChargeScanned(p, q, &charged);
      EXPECT_EQ(sink.count(), 0u);
      EXPECT_EQ(executed.distance_terms, charged.distance_terms)
          << "pages " << p << "," << q;
      EXPECT_EQ(executed.filter_checks, charged.filter_checks);
      EXPECT_EQ(executed.edit_cells, charged.edit_cells);
    }
  }
}

TEST(TimeSeriesJoinerAccountingTest, ScanChargeIsFullDiagonalScan) {
  SimulatedDisk disk;
  std::vector<float> x = GenRandomWalk(600, 3);
  std::vector<float> y = GenRandomWalk(500, 4);
  for (float& v : y) v += 1e6f;  // No matches possible.
  const uint32_t L = 16, f = 4;
  auto xs = TimeSeriesStore::Build(&disk, "x", x, f, L, 60 * sizeof(float));
  auto ys = TimeSeriesStore::Build(&disk, "y", y, f, L, 60 * sizeof(float));
  ASSERT_TRUE(xs.ok());
  ASSERT_TRUE(ys.ok());
  TimeSeriesPairJoiner joiner(&*xs, &*ys, 0.5, false);

  for (uint32_t p = 0; p < xs->layout().NumPages(); ++p) {
    for (uint32_t q = 0; q < ys->layout().NumPages(); ++q) {
      OpCounters executed, charged;
      CountingSink sink;
      joiner.JoinPages(p, q, &sink, &executed);
      joiner.ChargeScanned(p, q, &charged);
      EXPECT_EQ(sink.count(), 0u);
      // The charge is the record-level diagonal-scan formula...
      const uint64_t nx = xs->layout().WindowCount(p);
      const uint64_t ny = ys->layout().WindowCount(q);
      const uint64_t diagonals = nx + ny - 1;
      EXPECT_EQ(charged.distance_terms, diagonals * 16);
      EXPECT_EQ(charged.filter_checks, nx * ny - diagonals);
      // ...which the summary-assisted execution never exceeds.
      EXPECT_LE(executed.distance_terms, charged.distance_terms);
      EXPECT_LE(executed.filter_checks, charged.filter_checks);
      EXPECT_EQ(executed.edit_cells, 0u);
    }
  }
}

TEST(StringJoinerAccountingTest, ScanChargeIsFullDiagonalScan) {
  SimulatedDisk disk;
  // Two compositionally disjoint strings: FD between any window pair
  // exceeds any small threshold, so no DP verification fires.
  std::vector<uint8_t> a(400, 0);  // All 'A'.
  std::vector<uint8_t> b(350, 3);  // All 'T'.
  Rng rng(7);
  for (size_t i = 0; i < a.size(); i += 3)
    a[i] = static_cast<uint8_t>(rng.Uniform(2));
  for (size_t i = 0; i < b.size(); i += 3)
    b[i] = static_cast<uint8_t>(2 + rng.Uniform(2));
  const uint32_t L = 12;
  auto as = StringSequenceStore::Build(&disk, "a", a, 4, L, 64);
  auto bs = StringSequenceStore::Build(&disk, "b", b, 4, L, 64);
  ASSERT_TRUE(as.ok());
  ASSERT_TRUE(bs.ok());
  StringPairJoiner joiner(&*as, &*bs, 1, false);

  for (uint32_t p = 0; p < as->layout().NumPages(); ++p) {
    for (uint32_t q = 0; q < bs->layout().NumPages(); ++q) {
      // This pair must really be unmarked for the contract to apply.
      if (as->PageLowerBound(p, *bs, q) <= 1.0) continue;
      OpCounters executed, charged;
      CountingSink sink;
      joiner.JoinPages(p, q, &sink, &executed);
      joiner.ChargeScanned(p, q, &charged);
      EXPECT_EQ(sink.count(), 0u);
      const uint64_t nx = as->layout().WindowCount(p);
      const uint64_t ny = bs->layout().WindowCount(q);
      const uint64_t diagonals = nx + ny - 1;
      EXPECT_EQ(charged.filter_checks,
                diagonals * 12 + (nx * ny - diagonals));
      EXPECT_LE(executed.filter_checks, charged.filter_checks);
      EXPECT_EQ(executed.edit_cells, 0u);  // Unmarked: nothing verifies.
      EXPECT_EQ(charged.edit_cells, 0u);
    }
  }
}

TEST(JoinerThresholdTest, MatrixThresholds) {
  SimulatedDisk disk;
  const std::vector<float> x = GenRandomWalk(300, 9);
  auto ts = TimeSeriesStore::Build(&disk, "x", x, 4, 16,
                                   60 * sizeof(float));
  ASSERT_TRUE(ts.ok());
  TimeSeriesPairJoiner ts_joiner(&*ts, &*ts, 2.0, true);
  // eps / sqrt(L/f) = 2.0 / 2.0.
  EXPECT_DOUBLE_EQ(ts_joiner.MatrixThreshold(), 1.0);

  const std::vector<uint8_t> a = GenDnaSequence(300, 10);
  auto ss = StringSequenceStore::Build(&disk, "a", a, 4, 12, 64);
  ASSERT_TRUE(ss.ok());
  StringPairJoiner s_joiner(&*ss, &*ss, 3, true);
  EXPECT_DOUBLE_EQ(s_joiner.MatrixThreshold(), 6.0);
}

TEST(VectorJoinerSelfJoinTest, EmitsEachUnorderedPairOnce) {
  SimulatedDisk disk;
  const VectorData data = GenRoadNetwork(150, 11);
  VectorDataset::Options options;
  options.page_size_bytes = 64;
  auto ds = VectorDataset::Build(&disk, "d", data, options);
  ASSERT_TRUE(ds.ok());
  VectorPairJoiner joiner(&*ds, &*ds, 0.1, Norm::kL2, true);

  CollectingSink sink;
  for (uint32_t p = 0; p < ds->num_pages(); ++p) {
    for (uint32_t q = 0; q < ds->num_pages(); ++q) {
      joiner.JoinPages(p, q, &sink, nullptr);
    }
  }
  // Processing the full page grid (both orders) emits each unordered
  // record pair exactly once.
  auto pairs = sink.pairs();
  auto sorted = sink.Sorted();
  EXPECT_EQ(pairs.size(), sorted.size());
  for (const auto& [a, b] : sorted) EXPECT_LT(a, b);
}

}  // namespace
}  // namespace pmjoin
