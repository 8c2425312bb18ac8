#ifndef PMJOIN_SERVER_SERVER_H_
#define PMJOIN_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "core/join_driver.h"
#include "geom/distance.h"
#include "io/buffer_pool.h"
#include "io/storage_backend.h"
#include "server/admission.h"
#include "server/artifact_cache.h"
#include "server/job.h"
#include "server/server_report.h"

namespace pmjoin {
namespace server {

/// Long-lived join server over one storage backend, serving both ε-joins
/// and kNN joins (JobSpec::k) from the same queue and artifact cache.
///
/// Topology: N submitter threads → AdmissionController → bounded
/// QueryQueue → one worker thread → JoinDriver. Concurrency lives at the
/// submission edge; execution is deliberately serial — an ε-join may
/// still parallelize internally via JoinOptions::num_threads, and serial
/// execution is what keeps the shared buffer pool, the artifact cache,
/// and the per-query obs sessions (which are single-session by design)
/// exact: every query's results and counters are byte-identical to a
/// standalone run of the same job, warm or cold (see
/// tests/server/server_concordance_test.cc).
///
/// What the server shares across queries:
///   - one BufferPool (Options::pool_pages): residency left by a query
///     turns the next query's reads of the same pages into buffer hits;
///   - one ArtifactCache: datasets (generate/Build once, or Open a copy
///     persisted by a prior process), memoized prediction matrices keyed
///     by (dataset pair, eps, norm), and memoized kNN candidate matrices
///     keyed by (dataset pair, norm) — shared by every k.
///
/// Observability: each executed query runs inside its own Tracer session
/// and emits a standard obs::RunReport (written to
/// Options::query_report_dir when set); the server folds every query
/// into a ServerReport whose ledger — Σ queries[].io + unattributed_io ==
/// io_totals — is exact because execution is serial on one disk.
class JoinServer {
 public:
  struct Options {
    /// Shared buffer pool capacity in pages. Must be >= the largest
    /// per-query buffer_pages (admission enforces it per job).
    uint32_t pool_pages = 256;
    /// Per-query buffer budget B when the job does not set one. Smaller
    /// than pool_pages by design: the paper's algorithms size clusters
    /// to B, and the headroom is what lets residency survive between
    /// queries.
    uint32_t default_buffer_pages = 100;
    uint32_t default_threads = 1;
    uint32_t max_threads = 64;
    size_t max_queue_depth = 64;
    uint32_t page_size_bytes = 4096;
    Norm norm = Norm::kL2;
    /// JoinOptions::seed for rand-sc / cc (must match a standalone run
    /// for concordance).
    uint64_t seed = 1;
    bool hierarchical_matrix = true;
    uint32_t filter_iterations = 5;
    /// Persist built datasets so a later process over the same file
    /// backend reopens instead of regenerating.
    bool persist_datasets = false;
    /// When non-empty, each query's obs::RunReport is written to
    /// `<dir>/<query id>.json`.
    std::string query_report_dir;
  };

  /// Result of one submitted query, readable once `done`.
  struct QueryResult {
    QueryRow row;       ///< The server-report row (status, io, ops, ...).
    JoinReport report;  ///< Valid when row.executed.
    /// Sorted deduplicated (r id, s id) result pairs.
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    bool done = false;
  };

  /// `disk` must outlive the server and must not be used by anything
  /// else between Start and Shutdown (the I/O ledger attributes every
  /// page moved on it to this server).
  JoinServer(StorageBackend* disk, Options options);
  ~JoinServer();

  JoinServer(const JoinServer&) = delete;
  JoinServer& operator=(const JoinServer&) = delete;

  /// Spawns the worker. Call once.
  Status Start();

  /// Admits and enqueues `job`, returning its query index. Admission
  /// failures and a full queue reject synchronously (BufferFull for the
  /// latter); rejected jobs still get an index and a "rejected" result
  /// row. Thread-safe.
  Result<uint64_t> Submit(const JobSpec& job) PMJOIN_EXCLUDES(mu_);

  /// Like Submit, but blocks for queue space instead of rejecting
  /// (producer backpressure).
  Result<uint64_t> SubmitBlocking(const JobSpec& job) PMJOIN_EXCLUDES(mu_);

  /// Blocks until query `index` completes; the reference stays valid for
  /// the server's lifetime.
  const QueryResult& Wait(uint64_t index) PMJOIN_EXCLUDES(mu_);

  /// Blocks until every submitted query has completed.
  void WaitAll() PMJOIN_EXCLUDES(mu_);

  /// Closes the queue, drains the remaining queries, and joins the
  /// worker. Idempotent; the destructor calls it.
  void Shutdown() PMJOIN_EXCLUDES(mu_);

  /// Aggregate report over everything submitted so far. Call after
  /// WaitAll/Shutdown for a complete picture.
  ServerReport BuildReport() PMJOIN_EXCLUDES(mu_);

  ArtifactCache::Stats cache_stats() const { return cache_.stats(); }
  const Options& options() const { return options_; }

 private:
  /// Worker loop: pops until the queue closes and drains.
  void WorkerLoop();
  /// Submit and SubmitBlocking: admits `job` and pushes it, blocking for
  /// queue space iff `blocking`, or records it as rejected.
  Result<uint64_t> Enqueue(const JobSpec& job, bool blocking)
      PMJOIN_EXCLUDES(mu_);
  /// Executes one admitted query inside its own obs session.
  void Execute(const QueuedQuery& queued) PMJOIN_EXCLUDES(mu_);
  /// Records a terminal state for query `index` and wakes waiters.
  void Finish(uint64_t index, QueryResult result) PMJOIN_EXCLUDES(mu_);
  /// Allocates the next result slot; fills id if empty.
  uint64_t Register(JobSpec* job) PMJOIN_EXCLUDES(mu_);
  /// True when every allocated result slot has completed.
  bool AllDoneLocked() const PMJOIN_REQUIRES(mu_);

  StorageBackend* disk_;
  Options options_;
  AdmissionController admission_;
  QueryQueue queue_;
  ArtifactCache cache_;
  BufferPool pool_;
  JoinDriver driver_;

  mutable Mutex mu_{lock_rank::kServer, "JoinServer::mu_"};
  CondVar done_cv_;
  IoStats server_start_io_ PMJOIN_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<QueryResult>> results_ PMJOIN_GUARDED_BY(mu_);
  ServerReport::AdmissionStats admission_stats_ PMJOIN_GUARDED_BY(mu_);
  bool started_ PMJOIN_GUARDED_BY(mu_) = false;
  bool shut_down_ PMJOIN_GUARDED_BY(mu_) = false;

  std::thread worker_;
};

}  // namespace server
}  // namespace pmjoin

#endif  // PMJOIN_SERVER_SERVER_H_
