#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/joiners.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/simulated_disk.h"

namespace pmjoin {
namespace {

/// The pre-kernel scalar page-pair join, kept verbatim as the behavioral
/// reference: per-pair WithinDistance over Record() spans, i ascending,
/// j ascending, result_pairs per emit, distance_terms charged in bulk as
/// nr * ns * dims. VectorPairJoiner::JoinPages must be byte-identical to
/// this — same pairs in the same order, same OpCounters — for every norm,
/// dimensionality, and page shape.
void ScalarReferenceJoinPages(const VectorDataset& r, const VectorDataset& s,
                              double eps, Norm norm, bool self_join,
                              uint32_t r_page, uint32_t s_page,
                              PairSink* sink, OpCounters* ops) {
  const uint32_t nr = r.PageRecordCount(r_page);
  const uint32_t ns = s.PageRecordCount(s_page);
  const size_t dims = r.dims();
  for (uint32_t i = 0; i < nr; ++i) {
    const std::span<const float> x = r.Record(r_page, i);
    const uint64_t xid = r.OriginalId(r_page, i);
    for (uint32_t j = 0; j < ns; ++j) {
      if (WithinDistance(x, s.Record(s_page, j), norm, eps)) {
        const uint64_t yid = s.OriginalId(s_page, j);
        if (!self_join || xid < yid) {
          sink->OnPair(xid, yid);
          if (ops != nullptr) ++ops->result_pairs;
        }
      }
    }
  }
  if (ops != nullptr) ops->distance_terms += uint64_t(nr) * ns * dims;
}

/// Deterministic threshold giving a meaningful accept fraction for any
/// (norm, dims): the 30th percentile of sampled cross-pair distances.
double CalibratedEps(const VectorDataset& r, const VectorDataset& s,
                     Norm norm) {
  std::vector<double> dists;
  const uint64_t n = std::min<uint64_t>(r.num_records(), s.num_records());
  for (uint64_t i = 0; i < n; ++i) {
    dists.push_back(VectorDistance(r.RecordByOriginalId(i),
                                   s.RecordByOriginalId(n - 1 - i), norm));
  }
  std::sort(dists.begin(), dists.end());
  return dists[dists.size() * 3 / 10];
}

struct JoinCase {
  size_t dims;
  uint32_t records;  // Total records per side.
  uint32_t records_per_page;
};

std::string CaseName(const ::testing::TestParamInfo<
                     std::tuple<Norm, JoinCase>>& info) {
  const auto& [norm, jc] = info.param;
  return NormName(norm) + "_d" + std::to_string(jc.dims) + "_n" +
         std::to_string(jc.records) + "_rpp" +
         std::to_string(jc.records_per_page);
}

class TiledJoinPropertyTest
    : public ::testing::TestWithParam<std::tuple<Norm, JoinCase>> {};

/// Every page pair, cross join: the tiled JoinPages and the scalar
/// reference must produce an identical ordered pair stream and identical
/// OpCounters.
TEST_P(TiledJoinPropertyTest, ByteIdenticalToScalarReference) {
  const auto& [norm, jc] = GetParam();
  SimulatedDisk disk;
  const VectorData r_data = GenUniform(jc.records, jc.dims, 0xAB + jc.dims);
  const VectorData s_data =
      GenUniform(jc.records + 3, jc.dims, 0xCD + jc.dims);
  VectorDataset::Options options;
  options.page_size_bytes = static_cast<uint32_t>(
      jc.records_per_page * jc.dims * sizeof(float));
  auto r = VectorDataset::Build(&disk, "r", r_data, options);
  auto s = VectorDataset::Build(&disk, "s", s_data, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(r->records_per_page(), jc.records_per_page);

  const double eps = CalibratedEps(*r, *s, norm);
  VectorPairJoiner joiner(&*r, &*s, eps, norm, /*self_join=*/false);

  uint64_t total_pairs = 0;
  for (uint32_t rp = 0; rp < r->num_pages(); ++rp) {
    for (uint32_t sp = 0; sp < s->num_pages(); ++sp) {
      CollectingSink tiled_sink, ref_sink;
      OpCounters tiled_ops, ref_ops;
      joiner.JoinPages(rp, sp, &tiled_sink, &tiled_ops);
      ScalarReferenceJoinPages(*r, *s, eps, norm, false, rp, sp, &ref_sink,
                               &ref_ops);
      ASSERT_EQ(tiled_sink.pairs(), ref_sink.pairs())
          << "pages " << rp << "," << sp;
      ASSERT_EQ(tiled_ops, ref_ops) << "pages " << rp << "," << sp;
      total_pairs += ref_sink.pairs().size();
    }
  }
  EXPECT_GT(total_pairs, 0u) << "degenerate case: threshold matched nothing";
}

/// Self-join duplicate suppression (xid < yid) must survive the tiling.
TEST_P(TiledJoinPropertyTest, SelfJoinByteIdenticalToScalarReference) {
  const auto& [norm, jc] = GetParam();
  SimulatedDisk disk;
  const VectorData data = GenUniform(jc.records, jc.dims, 0xEF + jc.dims);
  VectorDataset::Options options;
  options.page_size_bytes = static_cast<uint32_t>(
      jc.records_per_page * jc.dims * sizeof(float));
  auto ds = VectorDataset::Build(&disk, "d", data, options);
  ASSERT_TRUE(ds.ok());
  const double eps = CalibratedEps(*ds, *ds, norm);
  VectorPairJoiner joiner(&*ds, &*ds, eps, norm, /*self_join=*/true);

  for (uint32_t rp = 0; rp < ds->num_pages(); ++rp) {
    for (uint32_t sp = rp; sp < ds->num_pages(); ++sp) {
      CollectingSink tiled_sink, ref_sink;
      OpCounters tiled_ops, ref_ops;
      joiner.JoinPages(rp, sp, &tiled_sink, &tiled_ops);
      ScalarReferenceJoinPages(*ds, *ds, eps, norm, true, rp, sp, &ref_sink,
                               &ref_ops);
      ASSERT_EQ(tiled_sink.pairs(), ref_sink.pairs())
          << "pages " << rp << "," << sp;
      ASSERT_EQ(tiled_ops, ref_ops) << "pages " << rp << "," << sp;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TiledJoinPropertyTest,
    ::testing::Combine(
        ::testing::Values(Norm::kL1, Norm::kL2, Norm::kLInf),
        ::testing::Values(
            // dims covering every stride path — the narrow widths 1, 2
            // and 4 (d = 1, 2, 4, and 3 padded), the lane widths 8, 16
            // and 64 (d = 8, 13, 16, 64), the generic path (d = 33 pads
            // to 40) — and page shapes including single-record pages and
            // a short last page.
            JoinCase{1, 120, 16}, JoinCase{2, 300, 64}, JoinCase{4, 90, 11},
            JoinCase{3, 101, 7}, JoinCase{8, 96, 32}, JoinCase{13, 40, 1},
            JoinCase{16, 130, 9}, JoinCase{33, 65, 5},
            JoinCase{64, 48, 16},
            // More records per page than one kernel tile (256), so a
            // single sweep window spans multiple tiles.
            JoinCase{3, 650, 300}, JoinCase{2, 700, 600})),
    CaseName);

/// Boundary thresholds: eps equal to an exact record-pair distance lands
/// inside the kernels' float error band and must be re-decided exactly —
/// the pair at distance == eps is within, per the scalar reference.
TEST(TiledJoinBoundaryTest, ExactBoundaryEpsMatchesScalarReference) {
  SimulatedDisk disk;
  const size_t dims = 16;
  const VectorData r_data = GenUniform(64, dims, 0x77);
  const VectorData s_data = GenUniform(64, dims, 0x88);
  VectorDataset::Options options;
  options.page_size_bytes = 8 * dims * sizeof(float);
  auto r = VectorDataset::Build(&disk, "r", r_data, options);
  auto s = VectorDataset::Build(&disk, "s", s_data, options);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(s.ok());

  for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
    // Place eps exactly on several record-pair distances.
    for (const uint64_t probe : {0u, 17u, 40u, 63u}) {
      const double eps = VectorDistance(r->RecordByOriginalId(probe),
                                        s->RecordByOriginalId(63 - probe),
                                        norm);
      VectorPairJoiner joiner(&*r, &*s, eps, norm, false);
      for (uint32_t rp = 0; rp < r->num_pages(); ++rp) {
        for (uint32_t sp = 0; sp < s->num_pages(); ++sp) {
          CollectingSink tiled_sink, ref_sink;
          OpCounters tiled_ops, ref_ops;
          joiner.JoinPages(rp, sp, &tiled_sink, &tiled_ops);
          ScalarReferenceJoinPages(*r, *s, eps, norm, false, rp, sp,
                                   &ref_sink, &ref_ops);
          ASSERT_EQ(tiled_sink.pairs(), ref_sink.pairs())
              << NormName(norm) << " eps=" << eps << " pages " << rp << ","
              << sp;
          ASSERT_EQ(tiled_ops, ref_ops);
        }
      }
    }
  }
}

/// Records on a grid of coordinate-0 keys (multiples of 1/8, `keys`
/// distinct values, each repeated), every other coordinate 0.5 except in
/// every third repeat, where it is 0.5625 — so many pairs have a
/// coordinate-0 gap of exactly a grid multiple and all other coordinates
/// equal, and every key is shared by several records.
VectorData GridRecords(uint32_t count, size_t dims, uint32_t keys) {
  VectorData data;
  data.dims = dims;
  for (uint32_t i = 0; i < count; ++i) {
    data.values.push_back(static_cast<float>(i % keys) * 0.125f);
    const float rest = (i / keys) % 3 == 2 ? 0.5625f : 0.5f;
    for (size_t d = 1; d < dims; ++d) data.values.push_back(rest);
  }
  return data;
}

/// Sweep-window edges under every norm: pairs whose coordinate-0 gap is
/// exactly ε with every other coordinate equal (they sit on the window
/// edge, and the reference accepts them), duplicate coordinate-0 keys
/// (several records per key, split across pages), and windows wider than
/// one kernel tile (a page of 400 records over four keys).
TEST(SweepWindowEdgeTest, MatchesScalarReferenceUnderEveryNorm) {
  struct Shape {
    uint32_t count;
    uint32_t keys;
    uint32_t records_per_page;
  };
  for (const Shape shape : {Shape{144, 16, 5}, Shape{400, 4, 400}}) {
    for (const size_t dims : {1u, 2u, 3u, 9u}) {
      SimulatedDisk disk;
      VectorDataset::Options options;
      options.page_size_bytes =
          static_cast<uint32_t>(shape.records_per_page * dims * sizeof(float));
      const VectorData data = GridRecords(shape.count, dims, shape.keys);
      auto r = VectorDataset::Build(&disk, "r", data, options);
      auto s = VectorDataset::Build(&disk, "s", data, options);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(s.ok());
      for (const Norm norm : {Norm::kL1, Norm::kL2, Norm::kLInf}) {
        // A gap of exactly two grid steps, and the neighbouring doubles.
        std::vector<uint64_t> pairs_at;
        for (const double eps : {std::nextafter(0.25, 0.0), 0.25,
                                 std::nextafter(0.25, 1.0), 0.0}) {
          for (const bool self : {false, true}) {
            const VectorDataset& other = self ? *r : *s;
            VectorPairJoiner joiner(&*r, &other, eps, norm, self);
            uint64_t pairs = 0;
            for (uint32_t rp = 0; rp < r->num_pages(); ++rp) {
              for (uint32_t sp = 0; sp < other.num_pages(); ++sp) {
                CollectingSink sweep_sink, ref_sink;
                OpCounters sweep_ops, ref_ops;
                joiner.JoinPages(rp, sp, &sweep_sink, &sweep_ops);
                ScalarReferenceJoinPages(*r, other, eps, norm, self, rp, sp,
                                         &ref_sink, &ref_ops);
                ASSERT_EQ(sweep_sink.pairs(), ref_sink.pairs())
                    << NormName(norm) << " d" << dims << " eps=" << eps
                    << " self=" << self << " pages " << rp << "," << sp;
                ASSERT_EQ(sweep_ops, ref_ops);
                pairs += ref_sink.pairs().size();
              }
            }
            if (!self) pairs_at.push_back(pairs);
          }
        }
        // The exact-gap pairs are accepted at ε = 0.25 and not just below.
        EXPECT_GT(pairs_at[1], pairs_at[0]) << NormName(norm) << " d" << dims;
        EXPECT_GT(pairs_at[3], 0u) << "duplicate records at ε = 0";
      }
    }
  }
}

/// An empty S-side tile sequence: pages whose record count is smaller
/// than one kernel tile, and the page-count edge where the last page
/// holds a single record.
TEST(TiledJoinBoundaryTest, ShortAndSingleRecordPages) {
  SimulatedDisk disk;
  const size_t dims = 8;
  // 33 records at 4 records/page -> last page holds 1 record.
  const VectorData data = GenUniform(33, dims, 0x99);
  VectorDataset::Options options;
  options.page_size_bytes = 4 * dims * sizeof(float);
  auto ds = VectorDataset::Build(&disk, "d", data, options);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->PageRecordCount(ds->num_pages() - 1), 1u);

  VectorPairJoiner joiner(&*ds, &*ds, 0.6, Norm::kL2, false);
  const uint32_t last = ds->num_pages() - 1;
  for (const auto& [rp, sp] :
       {std::pair<uint32_t, uint32_t>{last, last}, {0, last}, {last, 0}}) {
    CollectingSink tiled_sink, ref_sink;
    OpCounters tiled_ops, ref_ops;
    joiner.JoinPages(rp, sp, &tiled_sink, &tiled_ops);
    ScalarReferenceJoinPages(*ds, *ds, 0.6, Norm::kL2, false, rp, sp,
                             &ref_sink, &ref_ops);
    ASSERT_EQ(tiled_sink.pairs(), ref_sink.pairs());
    ASSERT_EQ(tiled_ops, ref_ops);
  }
}

}  // namespace
}  // namespace pmjoin
