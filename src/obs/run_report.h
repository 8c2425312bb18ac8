#ifndef PMJOIN_OBS_RUN_REPORT_H_
#define PMJOIN_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "common/status.h"
#include "io/io_stats.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pmjoin {
namespace obs {

// JSON building blocks shared by every report writer in the repo (this
// file's RunReport and the server's aggregate report,
// src/server/server_report.cc). Hand-rolled because the repo carries no
// JSON dependency; emit compact single-line JSON.

// `s` as a quoted JSON string with `"` and `\` escaped (the repo never
// puts control characters in report strings).
std::string JsonEscape(const std::string& s);

// Appends `io` as a JSON object with the five IoStats fields (the layout
// tools/validate_report.py's io_stats definition checks).
void AppendJsonIoStats(std::string* out, const IoStats& io);

// Appends `ops` as a JSON object with the six OpCounters fields.
void AppendJsonOpCounters(std::string* out, const OpCounters& ops);

// Writes `content` to `path`, whole-file. The single sanctioned path for
// report-artifact writing outside the storage backend: raw file I/O is
// lint-restricted (tools/pmjoin_lint.py file-io rule) to keep data-plane
// bytes flowing through StorageBackend, and report writers route here.
Status WriteTextFile(const std::string& path, const std::string& content);

// The "context" object of a report: caller-supplied rows in insertion
// order. Keys must be unique; values are emitted as JSON strings/numbers.
// RunReport and the server's aggregate report both carry one.
class ReportContext {
 public:
  void SetContext(const std::string& key, const std::string& value);
  void SetContext(const std::string& key, const char* value);
  void SetContext(const std::string& key, int64_t value);
  void SetContext(const std::string& key, uint64_t value);
  void SetContext(const std::string& key, double value);

 protected:
  // Appends `,"context":{...}`.
  void AppendContextJson(std::string* out) const;

 private:
  std::vector<std::pair<std::string, std::string>> context_;  // key, value
};

// One aggregated phase of a run report: every completed occurrence of the
// same span path, folded together. `io` is the inclusive modeled-I/O delta
// (what the span itself observed); `io_self` is the exclusive share — the
// inclusive delta minus the inclusive deltas of the phase's direct
// children — so that summing `io_self` over all phases plus the report's
// `unattributed_io` reproduces the session's `IoStats` totals exactly,
// field by field.
struct PhaseRow {
  std::string path;   // full nesting path ("join/execute/cluster")
  std::string name;   // leaf segment
  uint64_t count = 0; // completed occurrences folded into this row
  int64_t wall_ns = 0;
  bool has_io = false;
  IoStats io;
  IoStats io_self;
  bool has_ops = false;
  OpCounters ops;
};

// The single machine-readable output path for joins and benches: one JSON
// object carrying the observed session's phase ledger (from Tracer spans),
// the metrics-registry snapshot, the session IoStats totals, caller
// context, and any bench table rows. Written by `examples/pmjoin_cli
// --report`, `bench_kernels --json`, and the CI artifact jobs;
// tools/run_report_schema.json documents the schema and
// tools/validate_report.py checks it (including the exact-attribution
// invariant above).
class RunReport : public ReportContext {
 public:
  static constexpr const char* kSchema = "pmjoin.run_report.v1";

  // Appends one pre-serialized single-line JSON object to "rows" (the
  // bench harness's table records pass through here verbatim).
  void AddRowJson(std::string json_object);

  // Folds a finished session into the report: aggregates `events` into
  // phase rows (computing exclusive I/O), snapshots the metrics registry,
  // and records the tracer's session IoStats totals. Call after
  // Tracer::StopSession. The overload without arguments drains
  // Tracer::TakeEvents() itself.
  void CaptureSession();
  void CaptureSession(const std::vector<TraceEvent>& events);

  const std::vector<PhaseRow>& phases() const { return phases_; }
  const IoStats& io_totals() const { return io_totals_; }
  const IoStats& unattributed_io() const { return unattributed_io_; }

  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::string> rows_;
  std::vector<PhaseRow> phases_;
  std::vector<MetricsRegistry::MetricRow> metrics_;
  IoStats io_totals_;
  IoStats unattributed_io_;
};

}  // namespace obs
}  // namespace pmjoin

#endif  // PMJOIN_OBS_RUN_REPORT_H_
