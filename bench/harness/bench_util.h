#ifndef PMJOIN_BENCH_HARNESS_BENCH_UTIL_H_
#define PMJOIN_BENCH_HARNESS_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/join_driver.h"
#include "data/generators.h"
#include "data/vector_dataset.h"
#include "io/simulated_disk.h"
#include "seq/sequence_store.h"

namespace pmjoin {
namespace obs {
class RunReport;
}  // namespace obs
namespace bench {

/// Common command-line handling for the experiment binaries.
///
/// Every bench accepts:
///   --scale=<f>   fraction of the paper's dataset cardinalities
///                 (default per bench; buffer sizes scale along)
///   --full        the paper's full cardinalities (slow)
///   --quick       an extra-small smoke configuration
///   --json        emit JSON Lines instead of fixed-width tables: one
///                 object per table row, keyed by the column names, plus
///                 {"table": ...} header and {"paper_note": ...} records
struct BenchArgs {
  double scale = 0.0;  // 0 → use the bench's default.
  bool full = false;
  bool quick = false;
  bool json = false;

  static BenchArgs Parse(int argc, char** argv);

  /// Resolves the effective scale given this bench's default.
  double EffectiveScale(double default_scale) const;
};

/// Scales a paper quantity (cardinality, buffer pages) with a floor.
uint64_t Scaled(uint64_t paper_value, double scale, uint64_t min_value = 1);

/// The paper's datasets (synthetic stand-ins, DESIGN.md "Dataset
/// substitutions"), at a fraction `scale` of their published cardinality.
/// Paper cardinalities: LBeach 53,145 / MCounty 39,231 2-d road points;
/// Landsat 275,465 60-d vectors in 8 splits; HChr18 4,225,477 nt;
/// MChr18 2,313,942 nt.
VectorData LBeachData(double scale);
VectorData MCountyData(double scale);
/// Landsat split i (0-based, i < 8), each 275,465/8 vectors.
VectorData LandsatSplit(double scale, int split);
/// A Landsat-like dataset of exactly `count` vectors with split-disjoint
/// seeding (Fig. 14 merges).
VectorData LandsatSized(size_t count, uint64_t seed_salt);
std::vector<uint8_t> HChr18Data(double scale);
/// Both chromosomes from the shared motif pool (cross-species homology).
void Chr18Pair(double scale, std::vector<uint8_t>* human,
               std::vector<uint8_t>* mouse);

/// Paper experiment constants.
constexpr uint32_t kSpatialPageBytes = 1024;   // Fig. 10: 1 KB pages.
constexpr uint32_t kSequencePageBytes = 4096;  // Fig. 11: 4 KB pages.
constexpr uint32_t kGenomeWindowLen = 500;     // §3's genome query.
constexpr uint32_t kGenomeMaxEdits = 5;        // ε/symbol = 0.01.

/// Page size for sequence benches at a given scale. Scaled-down runs use
/// 1 KB pages so the *page count* (and hence the buffer-to-pages ratio and
/// matrix structure) stays proportional to the paper's setup; full-scale
/// runs use the paper's 4 KB.
inline uint32_t SequencePageBytes(double scale) {
  return scale >= 0.5 ? kSequencePageBytes : 1024;
}

/// Buffer size preserving the paper's buffer-to-pages ratio:
/// paper_b out of paper_pages, applied to the actual page count.
inline uint32_t ScaledBuffer(uint32_t paper_b, uint64_t paper_pages,
                             uint64_t actual_pages) {
  const double ratio =
      static_cast<double>(paper_b) / static_cast<double>(paper_pages);
  const auto b = static_cast<uint32_t>(ratio * actual_pages + 0.5);
  return b < 4 ? 4 : b;
}

/// Full-scale page counts of the paper's datasets (for ScaledBuffer):
/// LBeach+MCounty at 1 KB pages; one Landsat split pair at 4 KB;
/// HChr18 (self) and HChr18+MChr18 at 4 KB with the L−1 tail.
constexpr uint64_t kPaperPagesSpatial = 723;
constexpr uint64_t kPaperPagesLandsatPair = 4052;
constexpr uint64_t kPaperPagesHChr18 = 1175;
constexpr uint64_t kPaperPagesChr18Pair = 1819;

/// The paper's effective I/O accounting: a uniform ~10 ms per page I/O
/// (its reported seconds equal page-I/O counts × 10 ms across Figs. 10–14,
/// e.g. NLJ's 58.4 s ≈ 5,942 page reads). Benches reproducing the paper's
/// figures use this model; the library's default linear model (10 ms seek
/// + 1 ms transfer) is exercised by the ablation bench, where sequential
/// scans are rewarded.
inline DiskModel PaperIoModel() {
  DiskModel model;
  model.seek_sec = 0.0;
  model.transfer_sec = 0.010;
  return model;
}

/// Picks ε such that approximately `pair_fraction` of record pairs join,
/// by sampling `samples` random cross pairs (deterministic in `seed`).
double CalibrateEps(const VectorData& r, const VectorData& s,
                    double pair_fraction, Norm norm, uint64_t seed,
                    size_t samples = 20000);

/// Picks ε such that approximately `target_selectivity` of the prediction
/// matrix is marked (page-pair MINDIST quantile over sampled page pairs).
/// The paper quotes its experiments' "query selectivity" at this page
/// level (e.g. ~10% for Fig. 10, ~2% for Fig. 11). When more than that
/// share of the page pairs overlap (small `--quick` inputs), ε is the
/// smallest positive sampled MINDIST.
double CalibratePageEps(const VectorDataset& r, const VectorDataset& s,
                        double target_selectivity, Norm norm,
                        uint64_t seed, size_t samples = 200000);

/// Fixed-width table printing. In JSON mode (`--json`, or SetJsonOutput)
/// the same calls emit JSON Lines: the header emits
/// `{"table": <title>, "columns": [...]}` and each row emits one object
/// keyed by the header's column names (numeric-looking cells are emitted
/// as JSON numbers). tools/assemble_bench_output.sh concatenates either
/// format unchanged.
void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns);
/// One row under the last header: a label, then one cell per column.
/// Any other shape fails a PMJOIN_CHECK.
void PrintTableRow(const std::vector<std::string>& cells);

/// Switches PrintTable*/PrintPaperNote to JSON Lines output. Called by
/// BenchArgs::Parse when it sees --json.
void SetJsonOutput(bool enabled);

/// Mirrors every JSON line (header, row, paper note) into `report`'s
/// "rows" array as well as stdout, so a bench can leave a machine-readable
/// run-report artifact (e.g. BENCH_kernels.json) while still printing.
/// Only active in JSON mode. Pass nullptr to stop mirroring; the caller
/// owns the report and decides when to write it out.
void SetReportArtifact(obs::RunReport* report);
std::string FormatSeconds(double seconds);
std::string FormatCount(uint64_t count);

/// Prints the standard per-algorithm report row:
/// algorithm | preprocess | cpu-join | io | total | pages read | seeks |
/// result pairs.
void PrintReportRow(const std::string& label, const JoinReport& report);
std::vector<std::string> ReportColumns();

/// Prints the paper's expectation for shape comparison.
void PrintPaperNote(const std::string& note);

}  // namespace bench
}  // namespace pmjoin

#endif  // PMJOIN_BENCH_HARNESS_BENCH_UTIL_H_
