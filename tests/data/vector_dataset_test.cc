#include "data/vector_dataset.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/pair_sink.h"
#include "core/join_driver.h"
#include "data/generators.h"
#include "io/simulated_disk.h"
#include "io/wire.h"

namespace pmjoin {
namespace {

VectorDataset::Options PageBytes(uint32_t bytes) {
  VectorDataset::Options options;
  options.page_size_bytes = bytes;
  return options;
}

/// True when every page's slots ascend in coordinate 0 — the sorted-page
/// invariant of VectorDataset::PageBlock.
bool PagesAscendInFirstCoordinate(const VectorDataset& ds) {
  for (uint32_t p = 0; p < ds.num_pages(); ++p) {
    for (uint32_t s = 1; s < ds.PageRecordCount(p); ++s) {
      if (ds.Record(p, s)[0] < ds.Record(p, s - 1)[0]) return false;
    }
  }
  return true;
}

/// Slot-by-slot equality of two datasets' layouts: records, original ids
/// and page MBRs.
void ExpectSameLayout(const VectorDataset& a, const VectorDataset& b) {
  ASSERT_EQ(a.num_pages(), b.num_pages());
  ASSERT_EQ(a.padded_stride(), b.padded_stride());
  for (uint32_t p = 0; p < a.num_pages(); ++p) {
    ASSERT_EQ(a.PageRecordCount(p), b.PageRecordCount(p));
    EXPECT_EQ(a.PageMbr(p), b.PageMbr(p)) << "page " << p;
    for (uint32_t s = 0; s < a.PageRecordCount(p); ++s) {
      EXPECT_EQ(a.OriginalId(p, s), b.OriginalId(p, s))
          << "page " << p << " slot " << s;
      for (size_t d = 0; d < a.dims(); ++d)
        EXPECT_EQ(a.Record(p, s)[d], b.Record(p, s)[d]);
    }
  }
}

/// Writes a persisted-dataset image by hand: data file `name` holding
/// `pages` (raw unpadded records) and a `<name>.meta` sidecar in
/// Persist's format with the given header words and original ids. Lets a
/// test feed Open layouts and headers Persist never writes.
void WriteImage(StorageBackend* disk, const std::string& name, uint32_t dims,
                uint32_t records_per_page, uint64_t num_records,
                uint32_t num_pages,
                const std::vector<std::vector<float>>& pages,
                const std::vector<uint64_t>& ids) {
  const uint32_t file =
      disk->CreateFile(name, static_cast<uint32_t>(pages.size()));
  for (uint32_t p = 0; p < pages.size(); ++p) {
    std::vector<uint8_t> bytes(pages[p].size() * sizeof(float));
    std::memcpy(bytes.data(), pages[p].data(), bytes.size());
    ASSERT_TRUE(disk->WritePagePayload({file, p}, bytes).ok());
  }
  std::vector<uint8_t> meta;
  wire::AppendU64(&meta, 0x31305344564A4D50ULL);  // "PMJVDS01"
  wire::AppendU32(&meta, dims);
  wire::AppendU32(&meta, records_per_page);
  wire::AppendU64(&meta, num_records);
  wire::AppendU32(&meta, num_pages);
  for (const uint64_t id : ids) wire::AppendU64(&meta, id);
  ASSERT_TRUE(WriteBlobFile(disk, name + ".meta", meta).ok());
}

TEST(VectorDatasetTest, BuildValidation) {
  SimulatedDisk disk;
  VectorData empty;
  empty.dims = 2;
  EXPECT_FALSE(VectorDataset::Build(&disk, "x", empty, PageBytes(4096)).ok());

  VectorData tiny = GenUniform(10, 64, 3);
  // 64 floats = 256 bytes > 128-byte page.
  EXPECT_FALSE(VectorDataset::Build(&disk, "x", tiny, PageBytes(128)).ok());
}

TEST(VectorDatasetTest, PageGeometry) {
  SimulatedDisk disk;
  const VectorData data = GenUniform(1000, 2, 5);
  auto ds = VectorDataset::Build(&disk, "pts", data, PageBytes(256));
  ASSERT_TRUE(ds.ok());
  // 256 / (2·4) = 32 records per page → 32 pages except a short last one.
  EXPECT_EQ(ds->records_per_page(), 32u);
  EXPECT_EQ(ds->num_pages(), 32u);  // 1000/32 = 31.25 → 32 pages.
  uint64_t total = 0;
  for (uint32_t p = 0; p < ds->num_pages(); ++p)
    total += ds->PageRecordCount(p);
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(ds->PageRecordCount(ds->num_pages() - 1), 1000u - 31u * 32u);
}

TEST(VectorDatasetTest, OriginalIdRoundTrip) {
  SimulatedDisk disk;
  const VectorData data = GenRoadNetwork(500, 7);
  auto ds = VectorDataset::Build(&disk, "pts", data, PageBytes(128));
  ASSERT_TRUE(ds.ok());
  std::set<uint64_t> seen;
  for (uint32_t p = 0; p < ds->num_pages(); ++p) {
    for (uint32_t s = 0; s < ds->PageRecordCount(p); ++s) {
      const uint64_t orig = ds->OriginalId(p, s);
      EXPECT_TRUE(seen.insert(orig).second);
      // The stored record equals the original record.
      const std::span<const float> stored = ds->Record(p, s);
      for (size_t d = 0; d < 2; ++d) {
        EXPECT_EQ(stored[d], data.record(orig)[d]);
      }
      // And the reverse lookup agrees.
      const std::span<const float> by_id = ds->RecordByOriginalId(orig);
      EXPECT_EQ(by_id.data(), stored.data());
    }
  }
  EXPECT_EQ(seen.size(), 500u);
}

TEST(VectorDatasetTest, PageBlockIsContiguousPaddedRowMajor) {
  // The PageBlock contract the distance kernels rely on: per page, one
  // contiguous row-major block; stride = PaddedWidth(dims) (1, 2 or 4
  // floats below 8 dims, a lane multiple above); slot s starts exactly
  // s * stride floats after slot 0; padding (and the tail of a short last
  // page) reads as zeros.
  SimulatedDisk disk;
  const std::pair<size_t, uint32_t> kDimsAndStride[] = {
      {1, 1}, {2, 2}, {3, 4}, {8, 8}, {13, 16}, {60, 64}};
  for (const auto& [dims, stride] : kDimsAndStride) {
    const VectorData data = GenUniform(333, dims, 19 + dims);
    auto ds = VectorDataset::Build(
        &disk, "blk" + std::to_string(dims), data,
        PageBytes(static_cast<uint32_t>(7 * dims * sizeof(float))));
    ASSERT_TRUE(ds.ok());
    EXPECT_EQ(ds->padded_stride(), kernels::PaddedWidth(dims));
    EXPECT_EQ(ds->padded_stride(), stride);
    for (uint32_t p = 0; p < ds->num_pages(); ++p) {
      const kernels::BlockView block = ds->PageBlock(p);
      ASSERT_EQ(block.count, ds->PageRecordCount(p));
      ASSERT_EQ(block.stride, ds->padded_stride());
      for (uint32_t s = 0; s < block.count; ++s) {
        const std::span<const float> rec = ds->Record(p, s);
        const float* row = block.data + size_t(s) * block.stride;
        EXPECT_EQ(rec.data(), row) << "page " << p << " slot " << s;
        for (size_t d = dims; d < block.stride; ++d) {
          EXPECT_EQ(row[d], 0.0f) << "padding not zeroed";
        }
      }
      // Trailing slots of a short page are zero out to the lane boundary,
      // so kernels may read whole rows without a tail check.
      for (uint32_t s = block.count; s < ds->records_per_page(); ++s) {
        const float* row = block.data + size_t(s) * block.stride;
        for (size_t d = 0; d < block.stride; ++d) EXPECT_EQ(row[d], 0.0f);
      }
    }
  }
}

TEST(VectorDatasetTest, PageMbrsCoverTheirRecords) {
  SimulatedDisk disk;
  const VectorData data = GenRoadNetwork(800, 9);
  auto ds = VectorDataset::Build(&disk, "pts", data, PageBytes(256));
  ASSERT_TRUE(ds.ok());
  for (uint32_t p = 0; p < ds->num_pages(); ++p) {
    for (uint32_t s = 0; s < ds->PageRecordCount(p); ++s) {
      EXPECT_TRUE(ds->PageMbr(p).Contains(ds->Record(p, s)));
    }
  }
}

TEST(VectorDatasetTest, StrPackingGivesTightPages) {
  // Page MBRs should be dramatically tighter than input-order paging.
  SimulatedDisk disk;
  const VectorData data = GenUniform(2000, 2, 11);
  auto ds = VectorDataset::Build(&disk, "pts", data, PageBytes(256));
  ASSERT_TRUE(ds.ok());
  double packed_area = 0.0;
  for (uint32_t p = 0; p < ds->num_pages(); ++p)
    packed_area += ds->PageMbr(p).Area();

  double naive_area = 0.0;
  const uint32_t rpp = ds->records_per_page();
  for (size_t start = 0; start < data.count(); start += rpp) {
    Mbr m(2);
    for (size_t i = start; i < std::min(data.count(), start + rpp); ++i) {
      m.Expand(std::span<const float>(data.record(i), 2));
    }
    naive_area += m.Area();
  }
  EXPECT_LT(packed_area, 0.3 * naive_area);
}

TEST(VectorDatasetTest, TreeLeafIdsArePages) {
  SimulatedDisk disk;
  const VectorData data = GenUniform(600, 2, 13);
  auto ds = VectorDataset::Build(&disk, "pts", data, PageBytes(256));
  ASSERT_TRUE(ds.ok());
  const RStarTree& tree = ds->tree();
  EXPECT_EQ(tree.size(), ds->num_pages());
  // The audit proves every leaf id reachable exactly once.
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  std::vector<uint32_t> pages;
  for (uint32_t n = 0; n < tree.NumNodes(); ++n) {
    if (!tree.node(n).IsLeaf()) continue;
    for (const RStarTree::Entry& e : tree.node(n).entries)
      pages.push_back(e.id);
  }
  std::sort(pages.begin(), pages.end());
  ASSERT_EQ(pages.size(), ds->num_pages());
  for (uint32_t p = 0; p < pages.size(); ++p) EXPECT_EQ(pages[p], p);
}

TEST(VectorDatasetTest, FilesRegisteredOnDisk) {
  SimulatedDisk disk;
  const VectorData data = GenUniform(100, 4, 17);
  auto ds = VectorDataset::Build(&disk, "vecs", data, PageBytes(512));
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(disk.file(ds->file_id()).num_pages, ds->num_pages());
  EXPECT_EQ(disk.file(ds->file_id()).name, "vecs");
  ASSERT_TRUE(ds->tree().file_id().has_value());
  EXPECT_EQ(disk.file(*ds->tree().file_id()).num_pages,
            ds->tree().NumNodes());
}

TEST(VectorDatasetTest, HighDimensionalBuild) {
  SimulatedDisk disk;
  const VectorData data = GenCorrelatedClusters(500, 60, 19);
  auto ds = VectorDataset::Build(&disk, "landsat", data, PageBytes(4096));
  ASSERT_TRUE(ds.ok());
  // 4096 / 240 = 17 records per page.
  EXPECT_EQ(ds->records_per_page(), 17u);
  EXPECT_EQ(ds->num_pages(), (500u + 16u) / 17u);
}

TEST(VectorDatasetTest, PagesAscendInFirstCoordinateAfterBuildAndOpen) {
  for (const size_t dims : {1u, 2u, 5u, 60u}) {
    SimulatedDisk disk;
    const VectorData data = dims == 2 ? GenRoadNetwork(900, 31)
                                      : GenUniform(700, dims, 37 + dims);
    auto built = VectorDataset::Build(
        &disk, "pts", data,
        PageBytes(static_cast<uint32_t>(13 * dims * sizeof(float))));
    ASSERT_TRUE(built.ok());
    EXPECT_TRUE(PagesAscendInFirstCoordinate(*built)) << "dims " << dims;
    ASSERT_TRUE(built->Persist(&disk).ok());
    auto opened = VectorDataset::Open(&disk, "pts");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_TRUE(PagesAscendInFirstCoordinate(*opened)) << "dims " << dims;
    ExpectSameLayout(*built, *opened);
  }
}

TEST(VectorDatasetTest, UnsortedPersistedPagesReopenAndJoinIdentically) {
  // A dataset persisted before pages were sorted holds each page's
  // records in STR order. Emulate any such in-page order by writing every
  // page reversed (so descending in coordinate 0): Open must re-sort it
  // to exactly the fresh build's layout, and a join must then reproduce
  // the fresh build's ordered pair stream, counters and modeled I/O.
  const VectorData data = GenRoadNetwork(600, 41);
  const VectorDataset::Options options = PageBytes(16 * 2 * sizeof(float));
  SimulatedDisk fresh_disk;
  auto fresh = VectorDataset::Build(&fresh_disk, "pts", data, options);
  ASSERT_TRUE(fresh.ok());

  SimulatedDisk legacy_disk;
  std::vector<std::vector<float>> pages(fresh->num_pages());
  std::vector<uint64_t> ids;
  for (uint32_t p = 0; p < fresh->num_pages(); ++p) {
    for (uint32_t s = fresh->PageRecordCount(p); s-- > 0;) {
      const std::span<const float> rec = fresh->Record(p, s);
      // Distinct keys, so the sort has exactly one answer for this page.
      if (s > 0) {
        ASSERT_LT(fresh->Record(p, s - 1)[0], rec[0]);
      }
      pages[p].insert(pages[p].end(), rec.begin(), rec.end());
      ids.push_back(fresh->OriginalId(p, s));
    }
  }
  WriteImage(&legacy_disk, "pts", 2, fresh->records_per_page(),
             fresh->num_records(), fresh->num_pages(), pages, ids);
  auto reopened = VectorDataset::Open(&legacy_disk, "pts");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameLayout(*fresh, *reopened);

  JoinOptions join_options;
  join_options.algorithm = Algorithm::kSc;
  join_options.buffer_pages = 6;
  CollectingSink fresh_pairs, reopened_pairs;
  JoinDriver fresh_driver(&fresh_disk), reopened_driver(&legacy_disk);
  auto fresh_report =
      fresh_driver.RunVector(*fresh, *fresh, 0.03, join_options, &fresh_pairs);
  auto reopened_report = reopened_driver.RunVector(
      *reopened, *reopened, 0.03, join_options, &reopened_pairs);
  ASSERT_TRUE(fresh_report.ok());
  ASSERT_TRUE(reopened_report.ok());
  EXPECT_GT(fresh_pairs.pairs().size(), 0u);
  EXPECT_EQ(fresh_pairs.pairs(), reopened_pairs.pairs());
  EXPECT_EQ(fresh_report->ops, reopened_report->ops);
  EXPECT_EQ(fresh_report->io, reopened_report->io);
}

TEST(VectorDatasetTest, OpenRejectsPageGeometryBeyondTheBackendPage) {
  // Well-formed sidecars whose records_per_page × dims cannot fit one
  // backend page: Open must refuse them before allocating the packed
  // rows or copying a record out of the page-sized read buffer.
  struct Geometry {
    uint32_t dims;
    uint32_t records_per_page;
  };
  const uint32_t page_floats = kDefaultPageSizeBytes / sizeof(float);
  for (const Geometry g : {Geometry{2, 1u << 30}, Geometry{1u << 30, 1},
                           Geometry{page_floats + 1, 1},
                           Geometry{2, page_floats / 2 + 1},
                           Geometry{0xFFFFFFFFu, 0xFFFFFFFFu}}) {
    // Every other header word is consistent, so only the geometry check
    // can refuse the image.
    const uint32_t num_pages = g.records_per_page == 1 ? 2 : 1;
    SimulatedDisk disk;
    WriteImage(&disk, "g", g.dims, g.records_per_page, /*num_records=*/2,
               num_pages,
               std::vector<std::vector<float>>(num_pages, {1.0f, 2.0f}),
               {0, 1});
    auto opened = VectorDataset::Open(&disk, "g");
    ASSERT_FALSE(opened.ok()) << g.dims << " x " << g.records_per_page;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
  // The largest geometry that fits still opens.
  SimulatedDisk disk;
  WriteImage(&disk, "g", 2, page_floats / 2, /*num_records=*/2,
             /*num_pages=*/1, {{1.0f, 2.0f, 3.0f, 4.0f}}, {1, 0});
  auto opened = VectorDataset::Open(&disk, "g");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->OriginalId(0, 0), 1u);
}

TEST(VectorDatasetTest, OpenRejectsRepeatedOriginalIds) {
  SimulatedDisk disk;
  WriteImage(&disk, "d", 2, 4, /*num_records=*/2, /*num_pages=*/1,
             {{1.0f, 2.0f, 3.0f, 4.0f}}, {1, 1});
  auto opened = VectorDataset::Open(&disk, "d");
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

TEST(VectorDatasetTest, NonFiniteCoordinatesAreRejected) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    // Build: invalid input.
    VectorData data = GenUniform(50, 3, 43);
    data.values[3 * 17 + 1] = bad;
    SimulatedDisk disk;
    auto built = VectorDataset::Build(&disk, "v", data, PageBytes(256));
    ASSERT_FALSE(built.ok()) << bad;
    EXPECT_TRUE(built.status().IsInvalidArgument())
        << built.status().ToString();

    // Open: a persisted page that holds one is corrupt.
    SimulatedDisk image;
    WriteImage(&image, "v", 2, 4, /*num_records=*/3, /*num_pages=*/1,
               {{0.5f, 0.25f, bad, 0.75f, 0.125f, 1.0f}}, {2, 0, 1});
    auto opened = VectorDataset::Open(&image, "v");
    ASSERT_FALSE(opened.ok()) << bad;
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  }
}

}  // namespace
}  // namespace pmjoin
