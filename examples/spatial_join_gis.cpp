// GIS spatial join — the paper's motivating query (§1):
//
//   "Find all hotels in California that are within three miles of a
//    recreation area."
//
// Hotels and recreation areas are two synthetic 2-d point sets over a
// 100 x 100 mile region; the join threshold is 3 miles. The example runs
// the same query with every technique in the library and prints a cost
// comparison — a miniature Fig. 13.
//
//   ./examples/spatial_join_gis

#include <cstdio>

#include "core/join_driver.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/simulated_disk.h"

namespace {

/// Rescales unit-square points to a miles-based region.
pmjoin::VectorData ToMiles(pmjoin::VectorData data, float miles) {
  for (float& v : data.values) v *= miles;
  return data;
}

}  // namespace

int main() {
  using namespace pmjoin;
  constexpr double kRegionMiles = 100.0;
  constexpr double kRadiusMiles = 3.0;

  SimulatedDisk disk;
  // Hotels hug the road network; recreation areas cluster in a few
  // regions (parks).
  const VectorData hotels =
      ToMiles(GenRoadNetwork(30000, /*seed=*/11), kRegionMiles);
  const VectorData parks = ToMiles(
      GenCorrelatedClusters(8000, /*dims=*/2, /*seed=*/12,
                            /*num_clusters=*/12, /*latent_factors=*/2),
      kRegionMiles);

  VectorDataset::Options layout;
  layout.page_size_bytes = 1024;
  auto hotel_ds = VectorDataset::Build(&disk, "hotels", hotels, layout);
  auto park_ds = VectorDataset::Build(&disk, "parks", parks, layout);
  if (!hotel_ds.ok() || !park_ds.ok()) {
    std::fprintf(stderr, "dataset build failed\n");
    return 1;
  }

  std::printf("GIS join: hotels within %.0f miles of a recreation area\n",
              kRadiusMiles);
  std::printf("hotels: %llu (%u pages)   parks: %llu (%u pages)\n\n",
              (unsigned long long)hotel_ds->num_records(),
              hotel_ds->num_pages(),
              (unsigned long long)park_ds->num_records(),
              park_ds->num_pages());

  JoinDriver driver(&disk);
  std::printf("%-10s %12s %12s %12s %14s\n", "technique", "pages read",
              "io (s)", "total (s)", "result pairs");
  for (Algorithm algorithm :
       {Algorithm::kNlj, Algorithm::kPmNlj, Algorithm::kBfrj,
        Algorithm::kEgo, Algorithm::kRandomSc, Algorithm::kSc,
        Algorithm::kCc}) {
    JoinOptions options;
    options.algorithm = algorithm;
    options.buffer_pages = 32;
    options.page_size_bytes = 1024;
    CountingSink sink;
    auto report =
        driver.RunVector(*hotel_ds, *park_ds, kRadiusMiles, options, &sink);
    if (!report.ok()) {
      std::printf("%-10s failed: %s\n", AlgorithmName(algorithm).c_str(),
                  report.status().ToString().c_str());
      continue;
    }
    std::printf("%-10s %12llu %12.3f %12.3f %14llu\n",
                AlgorithmName(algorithm).c_str(),
                (unsigned long long)report->io.pages_read,
                report->io_seconds, report->TotalSeconds(),
                (unsigned long long)sink.count());
  }
  std::printf("\nEvery row reports the identical result set — the\n"
              "techniques differ only in how they schedule page I/O.\n");

  // Distance semijoin variant: "which hotels have at least one
  // recreation area within 3 miles?" — same join, SemiJoinSink.
  JoinOptions options;
  options.algorithm = Algorithm::kSc;
  options.buffer_pages = 32;
  options.page_size_bytes = 1024;
  SemiJoinSink semi;
  auto report =
      driver.RunVector(*hotel_ds, *park_ds, kRadiusMiles, options, &semi);
  if (report.ok()) {
    std::printf("\nsemijoin: %zu of %llu hotels are within %.0f miles of"
                " a recreation area\n",
                semi.left_ids().size(),
                (unsigned long long)hotel_ds->num_records(), kRadiusMiles);
  }
  return 0;
}
