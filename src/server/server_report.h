#ifndef PMJOIN_SERVER_SERVER_REPORT_H_
#define PMJOIN_SERVER_SERVER_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/op_counters.h"
#include "common/status.h"
#include "io/io_stats.h"
#include "obs/run_report.h"
#include "server/artifact_cache.h"

namespace pmjoin {
namespace server {

/// One query's row in the aggregate server report.
struct QueryRow {
  std::string id;
  std::string engine;  ///< Job-file token ("sc", "cc", ..., "knn").
  std::string r;       ///< Canonical dataset key.
  std::string s;
  double eps = 0.0;    ///< 0 for kNN rows.
  uint32_t k = 0;      ///< 0 for ε-join rows; >= 1 for kNN rows.
  std::string status;  ///< "ok" | "rejected" | "failed".
  std::string error;   ///< Status message when not "ok".
  uint64_t result_pairs = 0;
  int64_t queue_ns = 0;  ///< Admission to dequeue.
  int64_t exec_ns = 0;   ///< Dequeue to completion.
  bool matrix_cache_hit = false;
  bool executed = false;  ///< False for rejected jobs: io/ops all-zero.
  /// Full obs-session I/O delta for this query — artifact builds
  /// included. These are the rows the server ledger sums: Σ queries[].io
  /// + unattributed_io == io_totals, field by field.
  IoStats io;
  /// The join's own I/O (JoinReport.io), a subset of `io`; comparable
  /// against a standalone run of the same query.
  IoStats join_io;
  OpCounters ops;
  uint64_t num_clusters = 0;
};

/// Aggregate report of one server process: per-query rows, server I/O
/// totals with the exact-attribution ledger, an end-to-end latency
/// histogram, and cache/admission statistics. Written as
/// `pmjoin.server_report.v1` JSON — the multi-query sibling of
/// obs::RunReport (tools/server_report_schema.json documents it;
/// tools/validate_report.py checks both schema and ledger).
class ServerReport : public obs::ReportContext {
 public:
  static constexpr const char* kSchema = "pmjoin.server_report.v1";
  /// Latency buckets: bucket b counts queries whose end-to-end latency in
  /// microseconds has bit_width b (bucket 0 = sub-microsecond), matching
  /// the obs::Histogram convention.
  static constexpr uint32_t kLatencyBuckets = 65;

  /// Appends one query row and folds its end-to-end latency
  /// (queue_ns + exec_ns) into the histogram (executed rows only).
  void AddQuery(QueryRow row);

  /// Server-lifetime I/O totals (disk stats delta since server start).
  /// unattributed_io is derived: totals minus the sum of row io.
  void SetIoTotals(const IoStats& totals);

  void SetCacheStats(const ArtifactCache::Stats& stats) { cache_ = stats; }

  struct AdmissionStats {
    uint64_t submitted = 0;  ///< All submission attempts.
    uint64_t admitted = 0;   ///< Entered the queue.
    uint64_t rejected = 0;   ///< Refused (policy or full queue).
    uint64_t completed = 0;  ///< Executed successfully.
    uint64_t failed = 0;     ///< Admitted but failed during execution.
    uint64_t max_queue_depth = 0;
  };
  void SetAdmissionStats(const AdmissionStats& stats) { admission_ = stats; }

  const std::vector<QueryRow>& queries() const { return queries_; }
  const IoStats& io_totals() const { return io_totals_; }
  IoStats UnattributedIo() const;

  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<QueryRow> queries_;
  IoStats io_totals_;
  std::array<uint64_t, kLatencyBuckets> latency_buckets_ = {};
  ArtifactCache::Stats cache_;
  AdmissionStats admission_;
};

}  // namespace server
}  // namespace pmjoin

#endif  // PMJOIN_SERVER_SERVER_REPORT_H_
