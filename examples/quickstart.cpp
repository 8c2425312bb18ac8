// Quickstart: the smallest end-to-end pmjoin program.
//
// Builds two small 2-d point datasets on the simulated disk, runs the
// paper's SC join (prediction matrix → square clustering → scheduled
// execution) through the one-call JoinDriver API, and prints the result
// count plus the attributed cost report.
//
//   ./examples/quickstart

#include <cstdio>

#include "core/join_driver.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/simulated_disk.h"

int main() {
  using namespace pmjoin;

  // 1. A simulated disk holds every file and charges all I/O.
  SimulatedDisk disk;

  // 2. Generate two synthetic point sets and lay them out as paged,
  //    spatially clustered datasets (STR packing; one R-tree over the
  //    page MBRs each).
  const VectorData red = GenRoadNetwork(20000, /*seed=*/1);
  const VectorData blue = GenRoadNetwork(15000, /*seed=*/2);
  VectorDataset::Options layout;
  layout.page_size_bytes = 1024;
  Result<VectorDataset> r = VectorDataset::Build(&disk, "red", red, layout);
  Result<VectorDataset> s =
      VectorDataset::Build(&disk, "blue", blue, layout);
  if (!r.ok() || !s.ok()) {
    std::fprintf(stderr, "build failed: %s / %s\n",
                 r.status().ToString().c_str(),
                 s.status().ToString().c_str());
    return 1;
  }

  // 3. Join: all pairs within ε = 0.005 (L2), via the paper's SC pipeline
  //    with a 32-page buffer.
  JoinDriver driver(&disk);
  JoinOptions options;
  options.algorithm = Algorithm::kSc;
  options.buffer_pages = 32;
  CountingSink sink;  // Use CollectingSink to keep the pairs.
  Result<JoinReport> report =
      driver.RunVector(*r, *s, /*eps=*/0.005, options, &sink);
  if (!report.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("pmjoin quickstart\n");
  std::printf("  datasets:        %llu x %llu records (%u x %u pages)\n",
              (unsigned long long)r->num_records(),
              (unsigned long long)s->num_records(), r->num_pages(),
              s->num_pages());
  std::printf("  result pairs:    %llu\n",
              (unsigned long long)sink.count());
  std::printf("  marked entries:  %llu of %llu page pairs (%.1f%%)\n",
              (unsigned long long)report->marked_entries,
              (unsigned long long)(report->matrix_rows *
                                   report->matrix_cols),
              100.0 * report->matrix_selectivity);
  std::printf("  clusters:        %llu\n",
              (unsigned long long)report->num_clusters);
  std::printf("  pages read:      %llu (%llu seeks)\n",
              (unsigned long long)report->io.pages_read,
              (unsigned long long)report->io.seeks);
  std::printf("  modeled seconds: %.3f io + %.3f cpu + %.3f preprocess"
              " = %.3f total\n",
              report->io_seconds, report->cpu_join_seconds,
              report->preprocess_seconds, report->TotalSeconds());
  return 0;
}
