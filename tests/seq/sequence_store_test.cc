#include "seq/sequence_store.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/distance.h"
#include "io/simulated_disk.h"
#include "io/wire.h"
#include "seq/edit_distance.h"
#include "seq/frequency_vector.h"
#include "seq/paa.h"
#include "test_util.h"

namespace pmjoin {
namespace {

using testing_util::RandomSeries;
using testing_util::RandomString;

TEST(SequenceLayoutTest, WindowArithmetic) {
  SequenceLayout layout;
  layout.num_symbols = 100;
  layout.window_len = 10;
  layout.windows_per_page = 25;
  EXPECT_EQ(layout.NumWindows(), 91u);
  EXPECT_EQ(layout.NumPages(), 4u);
  EXPECT_EQ(layout.FirstWindow(0), 0u);
  EXPECT_EQ(layout.FirstWindow(3), 75u);
  EXPECT_EQ(layout.WindowCount(0), 25u);
  EXPECT_EQ(layout.WindowCount(3), 16u);  // 91 − 75.
  EXPECT_EQ(layout.PageOfWindow(0), 0u);
  EXPECT_EQ(layout.PageOfWindow(74), 2u);
  EXPECT_EQ(layout.PageOfWindow(75), 3u);
}

TEST(SequenceLayoutTest, ShortSequence) {
  SequenceLayout layout;
  layout.num_symbols = 5;
  layout.window_len = 10;
  layout.windows_per_page = 4;
  EXPECT_EQ(layout.NumWindows(), 0u);
}

TEST(StringSequenceStoreTest, BuildValidation) {
  SimulatedDisk disk;
  EXPECT_FALSE(StringSequenceStore::Build(&disk, "x", {0, 1, 2}, 4, 10, 64)
                   .ok());  // Too short.
  EXPECT_FALSE(StringSequenceStore::Build(&disk, "x", {0, 1, 2, 3}, 4, 4, 3)
                   .ok());  // Page too small.
  EXPECT_FALSE(StringSequenceStore::Build(&disk, "x", {0, 9}, 4, 1, 64)
                   .ok());  // Symbol outside alphabet.
}

TEST(StringSequenceStoreTest, LayoutAndFile) {
  SimulatedDisk disk;
  Rng rng(3);
  auto symbols = RandomString(&rng, 500, 4);
  auto store = StringSequenceStore::Build(&disk, "dna", std::move(symbols),
                                          4, 16, 64);
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  EXPECT_EQ(layout.window_len, 16u);
  EXPECT_EQ(layout.windows_per_page, 64u - 15u);
  EXPECT_EQ(disk.file(store->file_id()).num_pages, layout.NumPages());
}

TEST(StringSequenceStoreTest, PageMbrCoversAllWindowFrequencies) {
  SimulatedDisk disk;
  Rng rng(5);
  auto symbols = RandomString(&rng, 400, 4);
  auto store = StringSequenceStore::Build(&disk, "dna", symbols, 4, 12, 48);
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    const Mbr& mbr = store->PageMbr(p);
    for (uint64_t w = layout.FirstWindow(p);
         w < layout.FirstWindow(p) + layout.WindowCount(p); ++w) {
      const auto freq = BuildFrequencyVector(
          std::span<const uint8_t>(symbols).subspan(w, 12), 4);
      std::vector<float> point(freq.begin(), freq.end());
      EXPECT_TRUE(mbr.Contains(point)) << "page " << p << " window " << w;
    }
  }
}

TEST(StringSequenceStoreTest, PageLowerBoundHolds) {
  // PageLowerBound(p, q) <= ED(x, y) for every window pair (x in p, y in
  // q): the Theorem-1 premise for string pages.
  SimulatedDisk disk;
  Rng rng(7);
  auto symbols = RandomString(&rng, 200, 4);
  const uint32_t L = 8;
  auto store = StringSequenceStore::Build(&disk, "dna", symbols, 4, L, 40);
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t q = 0; q < layout.NumPages(); ++q) {
      const double lb = store->PageLowerBound(p, *store, q);
      for (uint64_t x = layout.FirstWindow(p);
           x < layout.FirstWindow(p) + layout.WindowCount(p); x += 3) {
        for (uint64_t y = layout.FirstWindow(q);
             y < layout.FirstWindow(q) + layout.WindowCount(q); y += 3) {
          const size_t ed = EditDistance(
              std::span<const uint8_t>(symbols).subspan(x, L),
              std::span<const uint8_t>(symbols).subspan(y, L));
          EXPECT_LE(lb, double(ed) + 1e-9)
              << "pages " << p << "," << q << " windows " << x << "," << y;
        }
      }
    }
  }
}

TEST(TimeSeriesStoreTest, BuildValidation) {
  SimulatedDisk disk;
  std::vector<float> series(100, 1.0f);
  EXPECT_FALSE(
      TimeSeriesStore::Build(&disk, "t", series, 3, 10, 4096).ok());
  EXPECT_FALSE(TimeSeriesStore::Build(&disk, "t", {1.0f, 2.0f}, 2, 10, 4096)
                   .ok());
}

TEST(TimeSeriesStoreTest, PageMbrCoversAllWindowFeatures) {
  SimulatedDisk disk;
  Rng rng(11);
  auto series = RandomSeries(&rng, 300);
  const uint32_t L = 16, f = 4;
  auto store =
      TimeSeriesStore::Build(&disk, "ts", series, f, L, 60 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    const Mbr& mbr = store->PageMbr(p);
    for (uint64_t w = layout.FirstWindow(p);
         w < layout.FirstWindow(p) + layout.WindowCount(p); ++w) {
      const auto feat =
          Paa(std::span<const float>(series).subspan(w, L), f);
      // Prefix-sum computation may differ from direct means by FP noise.
      for (size_t d = 0; d < f; ++d) {
        EXPECT_GE(feat[d], mbr.lo(d) - 1e-4);
        EXPECT_LE(feat[d], mbr.hi(d) + 1e-4);
      }
    }
  }
}

TEST(TimeSeriesStoreTest, PageLowerBoundHolds) {
  SimulatedDisk disk;
  Rng rng(13);
  auto series = RandomSeries(&rng, 200);
  const uint32_t L = 8, f = 4;
  auto store =
      TimeSeriesStore::Build(&disk, "ts", series, f, L, 30 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t q = 0; q < layout.NumPages(); ++q) {
      const double lb = store->PageLowerBound(p, *store, q);
      for (uint64_t x = layout.FirstWindow(p);
           x < layout.FirstWindow(p) + layout.WindowCount(p); x += 2) {
        for (uint64_t y = layout.FirstWindow(q);
             y < layout.FirstWindow(q) + layout.WindowCount(q); y += 2) {
          const double raw = VectorDistance(
              std::span<const float>(series).subspan(x, L),
              std::span<const float>(series).subspan(y, L), Norm::kL2);
          EXPECT_LE(lb, raw + 1e-3)
              << "pages " << p << "," << q << " windows " << x << "," << y;
        }
      }
    }
  }
}

TEST(TimeSeriesStoreTest, LastPageShortButCovered) {
  SimulatedDisk disk;
  Rng rng(17);
  auto series = RandomSeries(&rng, 101);
  auto store =
      TimeSeriesStore::Build(&disk, "ts", series, 4, 8, 40 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  uint64_t covered = 0;
  for (uint32_t p = 0; p < layout.NumPages(); ++p)
    covered += layout.WindowCount(p);
  EXPECT_EQ(covered, layout.NumWindows());
}


TEST(SequenceLayoutTest, SubBoxArithmetic) {
  SequenceLayout layout;
  layout.num_symbols = 1000;
  layout.window_len = 10;
  layout.windows_per_page = 150;
  layout.windows_per_sub_box = 64;
  // 991 windows, 7 pages; full pages have ceil(150/64) = 3 sub-boxes.
  ASSERT_EQ(layout.NumPages(), 7u);
  EXPECT_EQ(layout.SubBoxCount(0), 3u);
  EXPECT_EQ(layout.SubBoxWindowCount(0, 0), 64u);
  EXPECT_EQ(layout.SubBoxWindowCount(0, 1), 64u);
  EXPECT_EQ(layout.SubBoxWindowCount(0, 2), 22u);
  EXPECT_EQ(layout.SubBoxFirstWindow(1, 1), 150u + 64u);
  // Last page holds 991 - 6*150 = 91 windows -> 2 sub-boxes.
  EXPECT_EQ(layout.WindowCount(6), 91u);
  EXPECT_EQ(layout.SubBoxCount(6), 2u);
  EXPECT_EQ(layout.SubBoxWindowCount(6, 1), 27u);
}

TEST(SequenceLayoutTest, SubBoxesPartitionPageWindows) {
  SequenceLayout layout;
  layout.num_symbols = 5000;
  layout.window_len = 37;
  layout.windows_per_page = 201;
  layout.windows_per_sub_box = 64;
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    uint64_t covered = 0;
    uint64_t expected_start = layout.FirstWindow(p);
    for (uint32_t b = 0; b < layout.SubBoxCount(p); ++b) {
      EXPECT_EQ(layout.SubBoxFirstWindow(p, b), expected_start);
      const uint32_t count = layout.SubBoxWindowCount(p, b);
      EXPECT_GT(count, 0u);
      covered += count;
      expected_start += count;
    }
    EXPECT_EQ(covered, layout.WindowCount(p));
  }
}

TEST(StringSequenceStoreTest, SubBoxMbrsCoverTheirWindows) {
  SimulatedDisk disk;
  Rng rng(41);
  auto symbols = RandomString(&rng, 600, 4);
  const uint32_t L = 10;
  auto store = StringSequenceStore::Build(&disk, "dna", symbols, 4, L, 80);
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t b = 0; b < layout.SubBoxCount(p); ++b) {
      const Mbr& sub = store->SubBoxMbr(p, b);
      // Sub-box nested in the page box.
      EXPECT_TRUE(store->PageMbr(p).Contains(sub));
      const uint64_t first = layout.SubBoxFirstWindow(p, b);
      for (uint64_t w = first; w < first + layout.SubBoxWindowCount(p, b);
           ++w) {
        const auto freq = BuildFrequencyVector(
            std::span<const uint8_t>(symbols).subspan(w, L), 4);
        std::vector<float> point(freq.begin(), freq.end());
        EXPECT_TRUE(sub.Contains(point)) << "p" << p << " b" << b;
      }
    }
  }
}

TEST(TimeSeriesStoreTest, SubBoxMbrsCoverTheirWindows) {
  SimulatedDisk disk;
  Rng rng(43);
  auto series = RandomSeries(&rng, 700);
  const uint32_t L = 16, f = 4;
  auto store =
      TimeSeriesStore::Build(&disk, "ts", series, f, L, 90 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t b = 0; b < layout.SubBoxCount(p); ++b) {
      const Mbr& sub = store->SubBoxMbr(p, b);
      EXPECT_TRUE(store->PageMbr(p).Contains(sub));
      const uint64_t first = layout.SubBoxFirstWindow(p, b);
      for (uint64_t w = first; w < first + layout.SubBoxWindowCount(p, b);
           ++w) {
        const auto feat =
            Paa(std::span<const float>(series).subspan(w, L), f);
        for (size_t d = 0; d < f; ++d) {
          EXPECT_GE(feat[d], sub.lo(d) - 1e-4);
          EXPECT_LE(feat[d], sub.hi(d) + 1e-4);
        }
      }
    }
  }
}


TEST(SequenceLayoutTest, CoarseBoxArithmetic) {
  SequenceLayout layout;
  layout.num_symbols = 3000;
  layout.window_len = 10;
  layout.windows_per_page = 600;
  layout.windows_per_sub_box = 64;
  layout.windows_per_coarse_box = 256;
  EXPECT_EQ(layout.FinePerCoarse(), 4u);
  // Full page: 600 windows -> 10 fine boxes, 3 coarse boxes.
  EXPECT_EQ(layout.SubBoxCount(0), 10u);
  EXPECT_EQ(layout.CoarseBoxCount(0), 3u);
  uint32_t lo, hi;
  layout.CoarseToFine(0, 0, &lo, &hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 4u);
  layout.CoarseToFine(0, 2, &lo, &hi);
  EXPECT_EQ(lo, 8u);
  EXPECT_EQ(hi, 10u);  // Clamped to the fine-box count.
}

TEST(SequenceLayoutTest, CoarseBoxesCoverAllFineBoxes) {
  SequenceLayout layout;
  layout.num_symbols = 7777;
  layout.window_len = 21;
  layout.windows_per_page = 500;
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    uint32_t covered = 0;
    for (uint32_t cb = 0; cb < layout.CoarseBoxCount(p); ++cb) {
      uint32_t lo, hi;
      layout.CoarseToFine(p, cb, &lo, &hi);
      EXPECT_EQ(lo, covered);
      EXPECT_GT(hi, lo);
      covered = hi;
    }
    EXPECT_EQ(covered, layout.SubBoxCount(p));
  }
}

TEST(StringSequenceStoreTest, CoarseBoxesContainTheirFineBoxes) {
  SimulatedDisk disk;
  Rng rng(47);
  auto symbols = RandomString(&rng, 1200, 4);
  auto store = StringSequenceStore::Build(&disk, "dna", symbols, 4, 10,
                                          400);
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t cb = 0; cb < layout.CoarseBoxCount(p); ++cb) {
      const Mbr& coarse = store->CoarseBoxMbr(p, cb);
      EXPECT_TRUE(store->PageMbr(p).Contains(coarse));
      uint32_t lo, hi;
      layout.CoarseToFine(p, cb, &lo, &hi);
      for (uint32_t b = lo; b < hi; ++b) {
        EXPECT_TRUE(coarse.Contains(store->SubBoxMbr(p, b)))
            << "p" << p << " cb" << cb << " b" << b;
      }
    }
  }
}

TEST(TimeSeriesStoreTest, CoarseBoxesContainTheirFineBoxes) {
  SimulatedDisk disk;
  Rng rng(53);
  auto series = RandomSeries(&rng, 1500);
  auto store = TimeSeriesStore::Build(&disk, "ts", series, 4, 16,
                                      420 * sizeof(float));
  ASSERT_TRUE(store.ok());
  const SequenceLayout& layout = store->layout();
  for (uint32_t p = 0; p < layout.NumPages(); ++p) {
    for (uint32_t cb = 0; cb < layout.CoarseBoxCount(p); ++cb) {
      const Mbr& coarse = store->CoarseBoxMbr(p, cb);
      uint32_t lo, hi;
      layout.CoarseToFine(p, cb, &lo, &hi);
      for (uint32_t b = lo; b < hi; ++b) {
        EXPECT_TRUE(coarse.Contains(store->SubBoxMbr(p, b)));
      }
    }
  }
}

constexpr uint64_t kStringMagic = 0x31305351534A4D50ULL;  // "PMJSQS01"
constexpr uint64_t kSeriesMagic = 0x31305451534A4D50ULL;  // "PMJSQT01"

/// Expects page `page` of file `name` to hold `expected` followed by zero
/// padding.
void ExpectPageBytes(StorageBackend* disk, const std::string& name,
                     uint32_t page, std::vector<uint8_t> expected) {
  auto file = disk->FindFile(name);
  ASSERT_TRUE(file.ok()) << name;
  std::vector<uint8_t> bytes(disk->page_size_bytes());
  ASSERT_TRUE(disk->ReadPagePayload({*file, page}, bytes).ok());
  expected.resize(bytes.size(), 0);
  EXPECT_EQ(bytes, expected) << name << " page " << page;
}

TEST(SequenceStoreFormatTest, SidecarAndFirstPageBytesArePinned) {
  // The on-disk format, byte for byte: persisted stores must keep opening.
  SimulatedDisk disk;
  auto dna = StringSequenceStore::Build(
      &disk, "dna", {0, 1, 2, 3, 3, 2, 1, 0, 1, 2}, /*alphabet=*/4,
      /*window_len=*/3, /*page_size_bytes=*/6, /*sub_box_windows=*/2);
  ASSERT_TRUE(dna.ok());
  ASSERT_TRUE(dna->Persist(&disk).ok());
  ExpectPageBytes(&disk, "dna.meta", 0,
                  {'P', 'M', 'J', 'S', 'Q', 'S', '0', '1',  // magic
                   4, 0, 0, 0,                              // alphabet
                   3, 0, 0, 0,                              // L
                   6, 0, 0, 0,                              // page bytes
                   2, 0, 0, 0,                              // T
                   10, 0, 0, 0, 0, 0, 0, 0});               // symbols
  ExpectPageBytes(&disk, "dna", 0, {0, 1, 2, 3, 3, 2});

  // 30-byte pages hold 7 floats; the sidecar records the 28 used.
  auto walk = TimeSeriesStore::Build(
      &disk, "walk",
      {0.5f, -1.0f, 2.25f, 4.0f, -0.125f, 8.0f, 1.5f, 3.0f, 0.0f, -2.5f},
      /*paa_dims=*/2, /*window_len=*/4, /*page_size_bytes=*/30,
      /*sub_box_windows=*/3);
  ASSERT_TRUE(walk.ok());
  ASSERT_TRUE(walk->Persist(&disk).ok());
  ExpectPageBytes(&disk, "walk.meta", 0,
                  {'P', 'M', 'J', 'S', 'Q', 'T', '0', '1',  // magic
                   2, 0, 0, 0,                              // f
                   4, 0, 0, 0,                              // L
                   28, 0, 0, 0,                             // page bytes
                   3, 0, 0, 0,                              // T
                   10, 0, 0, 0, 0, 0, 0, 0});               // values
  ExpectPageBytes(&disk, "walk", 0,
                  {0x00, 0x00, 0x00, 0x3F,    // 0.5
                   0x00, 0x00, 0x80, 0xBF,    // -1
                   0x00, 0x00, 0x10, 0x40,    // 2.25
                   0x00, 0x00, 0x80, 0x40,    // 4
                   0x00, 0x00, 0x00, 0xBE,    // -0.125
                   0x00, 0x00, 0x00, 0x41,    // 8
                   0x00, 0x00, 0xC0, 0x3F});  // 1.5
}

/// Replaces the `<name>.meta` sidecar with one in Persist's format holding
/// the given header words, so Open sees a header Build never writes.
void WriteSidecar(StorageBackend* disk, const std::string& name,
                  uint64_t magic, uint32_t feature_dims, uint32_t window_len,
                  uint32_t page_size_bytes, uint32_t sub_box_windows,
                  uint64_t num_symbols) {
  std::vector<uint8_t> meta;
  wire::AppendU64(&meta, magic);
  wire::AppendU32(&meta, feature_dims);
  wire::AppendU32(&meta, window_len);
  wire::AppendU32(&meta, page_size_bytes);
  wire::AppendU32(&meta, sub_box_windows);
  wire::AppendU64(&meta, num_symbols);
  ASSERT_TRUE(WriteBlobFile(disk, name + ".meta", meta).ok());
}

template <typename Store>
void ExpectCorruption(const Result<Store>& opened, const std::string& what) {
  ASSERT_FALSE(opened.ok()) << what;
  EXPECT_TRUE(opened.status().IsCorruption())
      << what << ": " << opened.status().ToString();
}

TEST(SequenceStoreAuditTest, SubBoxWidthOutsideOneToTwoToThe30IsRejected) {
  // 4·T is the coarse width in 32 bits: T = 2^30 wraps it to 0 (a
  // division by zero), T = 2^30 + 1 to 4 with 0 fine boxes per coarse box
  // (a join that silently finds nothing).
  SimulatedDisk disk;
  Rng rng(61);
  const std::vector<uint8_t> symbols = RandomString(&rng, 5000, 4);
  const std::vector<float> series = RandomSeries(&rng, 500);
  auto dna = StringSequenceStore::Build(&disk, "dna", symbols, 4, 100, 1024);
  ASSERT_TRUE(dna.ok());
  ASSERT_TRUE(dna->Persist(&disk).ok());
  for (const uint32_t t : {0u, 1u << 30, (1u << 30) + 1}) {
    const std::string what = "T = " + std::to_string(t);
    auto built =
        StringSequenceStore::Build(&disk, "x", symbols, 4, 100, 1024, t);
    ASSERT_FALSE(built.ok()) << what;
    EXPECT_TRUE(built.status().IsInvalidArgument()) << what;
    auto walk = TimeSeriesStore::Build(&disk, "y", series, 4, 16, 1024, t);
    ASSERT_FALSE(walk.ok()) << what;
    EXPECT_TRUE(walk.status().IsInvalidArgument()) << what;
    WriteSidecar(&disk, "dna", kStringMagic, 4, 100, 1024, t, 5000);
    ExpectCorruption(StringSequenceStore::Open(&disk, "dna"), what);
  }
  EXPECT_TRUE(StringSequenceStore::Build(&disk, "x", symbols, 4, 100, 1024,
                                         (1u << 30) - 1)
                  .ok());
  WriteSidecar(&disk, "dna", kStringMagic, 4, 100, 1024, 64, 5000);
  EXPECT_TRUE(StringSequenceStore::Open(&disk, "dna").ok());
}

TEST(SequenceStoreAuditTest, FeatureDimsBuildRejectsAreCorruption) {
  SimulatedDisk disk;
  Rng rng(67);
  auto dna = StringSequenceStore::Build(&disk, "dna",
                                        RandomString(&rng, 300, 4), 4, 8, 32);
  auto walk = TimeSeriesStore::Build(&disk, "walk", RandomSeries(&rng, 300),
                                     2, 8, 32 * sizeof(float));
  ASSERT_TRUE(dna.ok());
  ASSERT_TRUE(walk.ok());
  ASSERT_TRUE(dna->Persist(&disk).ok());
  ASSERT_TRUE(walk->Persist(&disk).ok());
  for (const uint32_t alphabet : {0u, 257u}) {
    WriteSidecar(&disk, "dna", kStringMagic, alphabet, 8, 32, 64, 300);
    ExpectCorruption(StringSequenceStore::Open(&disk, "dna"),
                     "alphabet " + std::to_string(alphabet));
  }
  for (const uint32_t f : {0u, 3u}) {  // f must divide L = 8.
    WriteSidecar(&disk, "walk", kSeriesMagic, f, 8, 32 * sizeof(float), 64,
                 300);
    ExpectCorruption(TimeSeriesStore::Open(&disk, "walk"),
                     "f = " + std::to_string(f));
  }
}

TEST(SequenceStoreAuditTest, PageValuesBuildRejectsAreCorruption) {
  SimulatedDisk disk;
  Rng rng(71);
  std::vector<float> series = RandomSeries(&rng, 4000);
  auto walk = TimeSeriesStore::Build(&disk, "walk", series, 4, 16, 1024);
  ASSERT_TRUE(walk.ok());
  ASSERT_TRUE(walk->Persist(&disk).ok());
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    // Build: invalid input. One NaN would poison every later prefix sum
    // and every sliding L2 tracker that crosses it.
    std::vector<float> poisoned = series;
    poisoned[100] = bad;
    auto built = TimeSeriesStore::Build(&disk, "x", poisoned, 4, 16, 1024);
    ASSERT_FALSE(built.ok()) << bad;
    EXPECT_TRUE(built.status().IsInvalidArgument())
        << built.status().ToString();

    // Open: a persisted page that holds one is corrupt.
    std::vector<uint8_t> page(256 * sizeof(float));
    std::memcpy(page.data(), poisoned.data(), page.size());
    ASSERT_TRUE(disk.WritePagePayload({walk->file_id(), 0}, page).ok());
    ExpectCorruption(TimeSeriesStore::Open(&disk, "walk"),
                     "value " + std::to_string(bad));
  }

  // A string page symbol outside the alphabet.
  auto dna = StringSequenceStore::Build(&disk, "dna",
                                        RandomString(&rng, 300, 4), 4, 8, 32);
  ASSERT_TRUE(dna.ok());
  ASSERT_TRUE(dna->Persist(&disk).ok());
  std::vector<uint8_t> page(dna->symbols().begin(),
                            dna->symbols().begin() + 32);
  page[5] = 9;
  ASSERT_TRUE(disk.WritePagePayload({dna->file_id(), 0}, page).ok());
  ExpectCorruption(StringSequenceStore::Open(&disk, "dna"), "symbol 9");
}

}  // namespace
}  // namespace pmjoin
