#ifndef PMJOIN_CORE_JOIN_DRIVER_H_
#define PMJOIN_CORE_JOIN_DRIVER_H_

#include <cstdint>
#include <string>

#include "common/cost_model.h"
#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/result.h"
#include "core/prediction_matrix.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/storage_backend.h"
#include "obs/run_report.h"
#include "seq/sequence_store.h"

namespace pmjoin {

/// The join techniques of the paper's evaluation (§9).
enum class Algorithm {
  kNlj,       ///< Block nested loop join (baseline).
  kPmNlj,     ///< Prediction-matrix NLJ (Fig. 4, Optimization 1).
  kRandomSc,  ///< SC clusters in random order (Optimizations 1–2).
  kSc,        ///< SC clusters in scheduled order (Optimizations 1–3).
  kCc,        ///< Cost-based clustering, scheduled (I/O lower bound).
  kEgo,       ///< Epsilon grid ordering (competitor).
  kBfrj,      ///< Breadth-first R-tree join (competitor).
  kKnn,       ///< kNN join (adaptive-ε pruning; RunKnnJoin, vector data
              ///< only). Not an ε-join algorithm — never valid in
              ///< JoinOptions::algorithm.
};

/// Short display name ("NLJ", "pm-NLJ", "rand-SC", "SC", "CC", "EGO",
/// "BFRJ", "kNN") as used in the paper's figures.
std::string AlgorithmName(Algorithm algorithm);

/// Knobs shared by all joins. Defaults reproduce the paper's setup.
struct JoinOptions {
  Algorithm algorithm = Algorithm::kSc;

  /// Buffer size B in pages.
  uint32_t buffer_pages = 100;

  /// Norm for vector-data predicates (sequence joins fix their own).
  Norm norm = Norm::kL2;

  /// Fig. 2 filter iterations k (paper default 5).
  uint32_t filter_iterations = 5;

  /// CC density-histogram resolution (buckets per axis).
  uint32_t cc_histogram_resolution = 100;

  /// Seed for random-SC's shuffle and CC's seed draws.
  uint64_t seed = 42;

  /// SC/CC: process clusters in the sharing-graph schedule (§8). Disabled
  /// by the scheduling ablation bench.
  bool schedule_clusters = true;

  /// Page size in bytes (BFRJ intermediate sizing and EGO's sorted
  /// copies; must match the page size used to build the datasets).
  uint32_t page_size_bytes = 4096;

  /// Worker threads for the clustered executor's in-memory entry joins
  /// (SC / rand-SC / CC only; see core/executor.h). 1 = serial. Any value
  /// produces the identical result pairs, CPU counters, and simulated
  /// IoStats — parallelism only changes wall-clock time.
  uint32_t num_threads = 1;
};

class BufferPool;
class KnnCandidateMatrix;

/// Externally owned artifacts a caller (the join server,
/// `src/server/server.h`) supplies so repeated queries reuse work across
/// runs. All pointers are borrowed and must outlive the call; every null
/// field falls back to the standalone behaviour (private pool, fresh
/// matrix build).
///
/// Reuse never changes a query's results: pairs and OpCounters depend
/// only on the datasets, the options, and the matrix content — residency
/// carried over in `shared_pool` merely turns modeled page reads into
/// buffer hits, and a memoized `matrix` is bit-identical to a fresh build
/// by construction (same deterministic code, same inputs).
struct JoinResources {
  /// Buffer pool shared across queries, replacing the driver's private
  /// per-run pool. Capacity must be >= the query's
  /// `options.buffer_pages` (the clustering algorithms size clusters to
  /// `buffer_pages`, so every cluster still fits). The caller is
  /// responsible for quiescence between queries
  /// (`BufferPool::CheckQuiescent`).
  BufferPool* shared_pool = nullptr;

  /// Prebuilt, finalized prediction matrix for exactly this
  /// (r pages, s pages, threshold, norm) query. Only meaningful for the
  /// matrix algorithms (kNlj, kPmNlj, kRandomSc, kSc, kCc); supplying it
  /// for a competitor algorithm is an InvalidArgument.
  const PredictionMatrix* matrix = nullptr;

  /// OpCounters charged when `matrix` was originally built. Replayed into
  /// the query's counters so a memoized matrix reports the identical
  /// modeled CPU cost as a cold build — the cache saves wall-clock time,
  /// never modeled work (kNlj is exempt: its matrix is an uncharged
  /// oracle, so nothing is replayed). May be null for an uncharged reuse.
  const OpCounters* matrix_build_ops = nullptr;

  /// Prebuilt kNN candidate matrix (core/knn_join.h) for exactly this
  /// (r pages, s pages, norm) dataset pair. The structure is ε- and
  /// k-free, so one cached build serves every k — which is how the join
  /// server shares it across mixed ε/kNN traffic on the same pair.
  /// Ignored by the ε-join entry points.
  const KnnCandidateMatrix* knn_matrix = nullptr;

  /// Build-time OpCounters replayed on `knn_matrix` reuse (the same
  /// warm == cold convention as matrix_build_ops). May be null.
  const OpCounters* knn_matrix_build_ops = nullptr;
};

/// Everything a bench row needs about one join execution. All "seconds"
/// are modeled (DiskModel for I/O, CpuCostModel for CPU) and fully
/// deterministic.
struct JoinReport {
  Algorithm algorithm = Algorithm::kSc;

  /// I/O counters attributed to this run.
  IoStats io;
  /// CPU counters attributed to this run.
  OpCounters ops;

  /// Modeled seconds: disk, join CPU, preprocessing (clustering +
  /// scheduling, the "Preprocess" bar of Figs. 10–11).
  double io_seconds = 0.0;
  double cpu_join_seconds = 0.0;
  double preprocess_seconds = 0.0;
  double TotalSeconds() const {
    return io_seconds + cpu_join_seconds + preprocess_seconds;
  }

  uint64_t result_pairs = 0;
  uint64_t marked_entries = 0;
  uint64_t matrix_rows = 0;
  uint64_t matrix_cols = 0;
  double matrix_selectivity = 0.0;
  uint64_t num_clusters = 0;
};

/// One-call façade over the whole library: builds the prediction matrix,
/// clusters it, schedules, and executes — or runs a baseline — returning a
/// fully attributed cost report. This is the public API the examples and
/// benches use.
///
/// The driver owns no data: every dataset and store brings its own page
/// tree and node file, built with it on the driver's disk.
class JoinDriver {
 public:
  explicit JoinDriver(StorageBackend* disk,
                      CpuCostModel cpu_model = CpuCostModel());

  /// ε-join of two vector datasets (pass the same object twice for a self
  /// join). Results go to `sink` as (original id, original id) pairs.
  /// `resources` may supply cached artifacts — a shared buffer pool
  /// and/or a memoized prediction matrix (see JoinResources); the default
  /// all-null value runs standalone.
  Result<JoinReport> RunVector(const VectorDataset& r,
                               const VectorDataset& s, double eps,
                               const JoinOptions& options, PairSink* sink,
                               const JoinResources& resources = {});

  /// kNN join of two vector datasets: for every record of `r`, its `k`
  /// nearest records of `s` under options.norm (pass the same object
  /// twice for a per-row self join, which skips only the identity pair).
  /// Pairs reach `sink` r-ascending, then (distance, id)-ascending within
  /// a row — byte-identical to ReferenceKnnJoin. Consumes
  /// options.buffer_pages / norm and runs on the calling thread;
  /// options.algorithm and num_threads are ignored (the report says
  /// kKnn). `resources` may supply a shared buffer pool and/or a memoized
  /// kNN candidate matrix (see JoinResources).
  Result<JoinReport> RunKnnJoin(const VectorDataset& r,
                                const VectorDataset& s, uint32_t k,
                                const JoinOptions& options, PairSink* sink,
                                const JoinResources& resources = {});

  /// Subsequence ε-join (L2 over length-L windows) of two time series.
  Result<JoinReport> RunTimeSeries(const TimeSeriesStore& r,
                                   const TimeSeriesStore& s, double eps,
                                   const JoinOptions& options,
                                   PairSink* sink);

  /// Subsequence edit-distance join (ED <= max_edits) of two strings.
  Result<JoinReport> RunString(const StringSequenceStore& r,
                               const StringSequenceStore& s,
                               uint32_t max_edits,
                               const JoinOptions& options, PairSink* sink);

  StorageBackend* disk() { return disk_; }
  const CpuCostModel& cpu_model() const { return cpu_model_; }

 private:
  /// The body of RunTimeSeries and RunString; `caller` prefixes argument
  /// errors.
  template <typename Kind>
  Result<JoinReport> RunSequence(const char* caller,
                                 const SequenceStore<Kind>& r,
                                 const SequenceStore<Kind>& s,
                                 typename Kind::Threshold threshold,
                                 const JoinOptions& options, PairSink* sink);

  /// `report` with the I/O since `io_before`, the counters `ops` and their
  /// modeled seconds filled in.
  JoinReport FinishReport(JoinReport report, const IoStats& io_before,
                          const OpCounters& ops) const;

  StorageBackend* disk_;
  CpuCostModel cpu_model_;
};

}  // namespace pmjoin

#endif  // PMJOIN_CORE_JOIN_DRIVER_H_
