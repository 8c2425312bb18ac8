#include "harness/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/rng.h"
#include "geom/distance.h"
#include "obs/run_report.h"

namespace pmjoin {
namespace bench {

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(arg.c_str() + 8);
    } else if (arg == "--full") {
      args.full = true;
    } else if (arg == "--quick") {
      args.quick = true;
    } else if (arg == "--json") {
      args.json = true;
      SetJsonOutput(true);
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // Tolerated so `for b in build/bench/*; do $b; done` can pass shared
      // google-benchmark flags without breaking the table binaries.
    } else {
      std::fprintf(
          stderr,
          "unknown flag %s (supported: --scale=F --full --quick --json)\n",
          arg.c_str());
    }
  }
  return args;
}

double BenchArgs::EffectiveScale(double default_scale) const {
  if (full) return 1.0;
  if (quick) return default_scale / 4.0;
  if (scale > 0.0) return scale;
  return default_scale;
}

uint64_t Scaled(uint64_t paper_value, double scale, uint64_t min_value) {
  const uint64_t v = static_cast<uint64_t>(std::llround(
      static_cast<double>(paper_value) * scale));
  return std::max(min_value, v);
}

VectorData LBeachData(double scale) {
  return GenRoadNetwork(Scaled(53145, scale, 500), /*seed=*/0xBEAC);
}

VectorData MCountyData(double scale) {
  return GenRoadNetwork(Scaled(39231, scale, 500), /*seed=*/0xC0DE);
}

VectorData LandsatSplit(double scale, int split) {
  return GenCorrelatedClusters(Scaled(275465 / 8, scale, 200), 60,
                               /*seed=*/0x1A5D + split);
}

VectorData LandsatSized(size_t count, uint64_t seed_salt) {
  return GenCorrelatedClusters(count, 60, 0x1A5D00 + seed_salt);
}

std::vector<uint8_t> HChr18Data(double scale) {
  std::vector<uint8_t> human, mouse;
  Chr18Pair(scale, &human, &mouse);
  return human;
}

void Chr18Pair(double scale, std::vector<uint8_t>* human,
               std::vector<uint8_t>* mouse) {
  // The isochore length scales with the data so the page/regime ratio —
  // and hence the matrix selectivity — is preserved, but it is floored so
  // a regime always spans several pages (below that, every page straddles
  // regimes and its frequency MBR degenerates). The floor matches the
  // 1 KB pages that SequencePageBytes uses for scaled-down runs.
  const double regime_scale = std::max(scale, 0.15);
  GenDnaPair(Scaled(4225477, scale, 20000), Scaled(2313942, scale, 15000),
             /*seed=*/0xD7A, human, mouse,
             /*repeat_fraction=*/0.30, /*mutation_rate=*/0.004,
             regime_scale);
}

double CalibrateEps(const VectorData& r, const VectorData& s,
                    double pair_fraction, Norm norm, uint64_t seed,
                    size_t samples) {
  Rng rng(seed);
  std::vector<double> dists;
  dists.reserve(samples);
  for (size_t i = 0; i < samples; ++i) {
    const size_t a = rng.Uniform(r.count());
    const size_t b = rng.Uniform(s.count());
    dists.push_back(VectorDistance({r.record(a), r.dims},
                                   {s.record(b), s.dims}, norm));
  }
  std::sort(dists.begin(), dists.end());
  const size_t idx = std::min(
      dists.size() - 1,
      static_cast<size_t>(pair_fraction * static_cast<double>(samples)));
  return std::max(dists[idx], 1e-9);
}

double CalibratePageEps(const VectorDataset& r, const VectorDataset& s,
                        double target_selectivity, Norm norm,
                        uint64_t seed, size_t samples) {
  const uint64_t grid = uint64_t(r.num_pages()) * s.num_pages();
  std::vector<double> dists;
  if (grid <= samples) {
    dists.reserve(grid);
    for (uint32_t i = 0; i < r.num_pages(); ++i) {
      for (uint32_t j = 0; j < s.num_pages(); ++j) {
        dists.push_back(r.PageMbr(i).MinDist(s.PageMbr(j), norm));
      }
    }
  } else {
    Rng rng(seed);
    dists.reserve(samples);
    for (size_t k = 0; k < samples; ++k) {
      const uint32_t i = static_cast<uint32_t>(rng.Uniform(r.num_pages()));
      const uint32_t j = static_cast<uint32_t>(rng.Uniform(s.num_pages()));
      dists.push_back(r.PageMbr(i).MinDist(s.PageMbr(j), norm));
    }
  }
  std::sort(dists.begin(), dists.end());
  const size_t idx = std::min(
      dists.size() - 1,
      static_cast<size_t>(target_selectivity *
                          static_cast<double>(dists.size())));
  if (dists[idx] == 0.0) {
    // More than the target share of the page pairs overlap, and every ε
    // marks at least those. The smallest positive MINDIST marks one page
    // pair more; an ε near 0 would join next to nothing.
    const auto first_positive =
        std::upper_bound(dists.begin(), dists.end(), 0.0);
    if (first_positive != dists.end()) return *first_positive;
  }
  return std::max(dists[idx], 1e-9);
}

namespace {
constexpr int kColWidth = 12;
constexpr int kLabelWidth = 18;

// The current table's title and column names, captured by
// PrintTableHeader so rows can be checked against the header and, in JSON
// mode, keyed by column.
bool json_output = false;
obs::RunReport* report_artifact = nullptr;
std::string table_title;
std::vector<std::string> table_columns;

/// Prints one JSON Lines record to stdout and, when set, mirrors it into
/// the report artifact's rows.
void EmitJsonLine(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  if (report_artifact != nullptr) report_artifact->AddRowJson(line);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Numeric-looking cells ("4.25", "1234", "-3") become JSON numbers;
/// everything else (labels, "n/a") is emitted as a string.
std::string JsonValue(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) return cell;
  }
  // Built with += to sidestep GCC 12's -Wrestrict false positive on
  // operator+(const char*, std::string&&) (GCC PR 105651).
  std::string quoted = "\"";
  quoted += JsonEscape(cell);
  quoted += '"';
  return quoted;
}
}  // namespace

void SetJsonOutput(bool enabled) { json_output = enabled; }

void SetReportArtifact(obs::RunReport* report) { report_artifact = report; }

void PrintTableHeader(const std::string& title,
                      const std::vector<std::string>& columns) {
  table_title = title;
  table_columns = columns;
  if (json_output) {
    std::string line = "{\"table\": \"" + JsonEscape(title) +
                       "\", \"columns\": [";
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i != 0) line += ", ";
      line += '"';
      line += JsonEscape(columns[i]);
      line += '"';
    }
    line += "]}";
    EmitJsonLine(line);
    return;
  }
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-*s", kLabelWidth, "");
  for (const std::string& c : columns) {
    std::printf("%*s", kColWidth, c.c_str());
  }
  std::printf("\n");
  std::printf("%s\n",
              std::string(kLabelWidth + kColWidth * columns.size(), '-')
                  .c_str());
}

void PrintTableRow(const std::vector<std::string>& cells) {
  PMJOIN_CHECK(cells.size() == table_columns.size() + 1, "table '",
               table_title, "': a row of ", cells.size(),
               " cells under ", table_columns.size(),
               " columns (a row is one label plus one cell per column)");
  if (json_output) {
    std::string line = "{\"table\": \"" + JsonEscape(table_title) + '"';
    line += ", \"label\": " + JsonValue(cells[0]);
    for (size_t i = 1; i < cells.size(); ++i) {
      line += ", \"" + JsonEscape(table_columns[i - 1]) +
              "\": " + JsonValue(cells[i]);
    }
    line += '}';
    EmitJsonLine(line);
    return;
  }
  std::printf("%-*s", kLabelWidth, cells[0].c_str());
  for (size_t i = 1; i < cells.size(); ++i) {
    std::printf("%*s", kColWidth, cells[i].c_str());
  }
  std::printf("\n");
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds >= 100.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", seconds);
  } else if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  }
  return buf;
}

std::string FormatCount(uint64_t count) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(count));
  return buf;
}

std::vector<std::string> ReportColumns() {
  return {"preproc(s)", "cpu(s)", "io(s)",  "total(s)",
          "pg_read",    "seeks",  "pairs"};
}

void PrintReportRow(const std::string& label, const JoinReport& report) {
  PrintTableRow({label, FormatSeconds(report.preprocess_seconds),
                 FormatSeconds(report.cpu_join_seconds),
                 FormatSeconds(report.io_seconds),
                 FormatSeconds(report.TotalSeconds()),
                 FormatCount(report.io.pages_read),
                 FormatCount(report.io.seeks),
                 FormatCount(report.result_pairs)});
}

void PrintPaperNote(const std::string& note) {
  if (json_output) {
    EmitJsonLine("{\"paper_note\": \"" + JsonEscape(note) + "\"}");
    return;
  }
  std::printf("paper: %s\n", note.c_str());
}

}  // namespace bench
}  // namespace pmjoin
