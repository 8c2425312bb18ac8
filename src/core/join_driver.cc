#include "core/join_driver.h"

#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bfrj.h"
#include "baselines/block_nlj.h"
#include "baselines/ego.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/cost_clustering.h"
#include "core/executor.h"
#include "core/invariant_audit.h"
#include "core/joiners.h"
#include "core/knn_join.h"
#include "core/plane_sweep.h"
#include "core/pm_nlj.h"
#include "core/scheduler.h"
#include "core/square_clustering.h"
#include "io/buffer_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace pmjoin {

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kNlj:
      return "NLJ";
    case Algorithm::kPmNlj:
      return "pm-NLJ";
    case Algorithm::kRandomSc:
      return "rand-SC";
    case Algorithm::kSc:
      return "SC";
    case Algorithm::kCc:
      return "CC";
    case Algorithm::kEgo:
      return "EGO";
    case Algorithm::kBfrj:
      return "BFRJ";
    case Algorithm::kKnn:
      return "kNN";
  }
  return "?";
}

JoinDriver::JoinDriver(StorageBackend* disk, CpuCostModel cpu_model)
    : disk_(disk), cpu_model_(cpu_model) {}

JoinReport JoinDriver::FinishReport(JoinReport report,
                                    const IoStats& io_before,
                                    const OpCounters& ops) const {
  report.io = disk_->stats().Delta(io_before);
  report.ops = ops;
  report.io_seconds = report.io.ModeledSeconds(disk_->model());
  report.cpu_join_seconds = cpu_model_.JoinSeconds(ops);
  report.preprocess_seconds = cpu_model_.PreprocessSeconds(ops);
  report.result_pairs = ops.result_pairs;
  return report;
}

namespace {

/// Runs one matrix-based algorithm (NLJ uses the matrix as a result-free
/// oracle only; see BlockNlj). `external_pool`, when non-null, replaces
/// the private per-run pool so callers (the join server) can carry page
/// residency across runs; it must have capacity >= options.buffer_pages.
/// Sets the report's matrix fields, and `report->num_clusters` for the
/// clustered engines.
Status RunMatrixAlgorithm(const JoinInput& input,
                          const PredictionMatrix& matrix,
                          const JoinOptions& options, const DiskModel& model,
                          StorageBackend* disk, PairSink* sink,
                          OpCounters* ops, JoinReport* report,
                          BufferPool* external_pool) {
  report->marked_entries = matrix.MarkedCount();
  report->matrix_rows = matrix.rows();
  report->matrix_cols = matrix.cols();
  report->matrix_selectivity = matrix.Selectivity();
  // Phase boundary (paranoid builds): whether freshly built or memoized,
  // the matrix must be finalized and structurally sound before any
  // operator consumes it.
  PMJOIN_DCHECK_OK(matrix.ValidateInvariants());
  std::unique_ptr<BufferPool> owned;
  BufferPool* pool_ptr = external_pool;
  if (pool_ptr == nullptr) {
    owned = std::make_unique<BufferPool>(disk, options.buffer_pages);
    pool_ptr = owned.get();
  }
  BufferPool& pool = *pool_ptr;
  switch (options.algorithm) {
    case Algorithm::kNlj: {
      PMJOIN_SPAN_OPS("block_nlj", ops);
      return BlockNlj(input, &pool, sink, ops, &matrix);
    }
    case Algorithm::kPmNlj:
      return PmNlj(input, matrix, &pool, sink, ops);
    case Algorithm::kRandomSc:
    case Algorithm::kSc:
    case Algorithm::kCc: {
      std::vector<Cluster> clusters;
      if (options.algorithm == Algorithm::kCc) {
        Rng rng(options.seed);
        clusters =
            CostClustering(matrix, options.buffer_pages, model,
                           options.cc_histogram_resolution, &rng, ops);
      } else {
        clusters = SquareClustering(matrix, options.buffer_pages, ops);
        // Phase boundary (paranoid builds): SC output must satisfy the
        // Theorem 2 / Lemma 2 shape guarantees before execution.
        PMJOIN_DCHECK_OK(
            ValidateSquareClusters(matrix, clusters, options.buffer_pages));
      }
      // Phase boundary (paranoid builds): whichever algorithm produced the
      // clustering, every marked entry must be assigned exactly once and
      // every cluster must fit the buffer (Lemma 2).
      PMJOIN_DCHECK_OK(
          ValidateClustering(matrix, clusters, options.buffer_pages));
      report->num_clusters = clusters.size();
      PMJOIN_METRIC_GAUGE_SET("executor.clusters",
                              static_cast<int64_t>(clusters.size()));

      std::vector<uint32_t> order;
      if (options.algorithm == Algorithm::kRandomSc) {
        order.resize(clusters.size());
        std::iota(order.begin(), order.end(), 0u);
        Rng rng(options.seed);
        rng.Shuffle(order);
      } else if (options.schedule_clusters) {
        order = ScheduleClusters(clusters, input, ops);
      } else {
        order.resize(clusters.size());
        std::iota(order.begin(), order.end(), 0u);
      }
      return ExecuteClusteredJoin(input, clusters, order, &pool, sink, ops,
                                  options.num_threads);
    }
    case Algorithm::kEgo:
    case Algorithm::kBfrj:
      return Status::Internal("not a matrix algorithm");
    case Algorithm::kKnn:
      return Status::Internal("kNN is served by RunKnnJoin, not an ε-join");
  }
  return Status::Internal("unknown algorithm");
}

}  // namespace

Result<JoinReport> JoinDriver::RunVector(const VectorDataset& r,
                                         const VectorDataset& s, double eps,
                                         const JoinOptions& options,
                                         PairSink* sink,
                                         const JoinResources& resources) {
  if (r.dims() != s.dims())
    return Status::InvalidArgument("RunVector: dimension mismatch");
  if (options.algorithm == Algorithm::kKnn)
    return Status::InvalidArgument(
        "RunVector: kNN is a separate query type (RunKnnJoin)");
  const bool matrix_algorithm = options.algorithm == Algorithm::kNlj ||
                                options.algorithm == Algorithm::kPmNlj ||
                                options.algorithm == Algorithm::kRandomSc ||
                                options.algorithm == Algorithm::kSc ||
                                options.algorithm == Algorithm::kCc;
  if (!matrix_algorithm &&
      (resources.matrix != nullptr || resources.shared_pool != nullptr))
    return Status::InvalidArgument(
        "RunVector: cached resources supplied for a non-matrix algorithm");
  if (resources.shared_pool != nullptr &&
      resources.shared_pool->capacity() < options.buffer_pages)
    return Status::InvalidArgument(
        "RunVector: shared pool smaller than options.buffer_pages");
  const bool self = &r == &s;
  VectorPairJoiner joiner(&r, &s, eps, options.norm, self);
  JoinInput input;
  input.r_file = r.file_id();
  input.s_file = s.file_id();
  input.r_pages = r.num_pages();
  input.s_pages = s.num_pages();
  input.self_join = self;
  input.joiner = &joiner;

  const IoStats io_before = disk_->stats();
  OpCounters ops;
  JoinReport report;
  report.algorithm = options.algorithm;
  PMJOIN_SPAN_OPS("join", &ops);

  Status st;
  if (options.algorithm == Algorithm::kEgo) {
    PMJOIN_SPAN_OPS("ego", &ops);
    BufferPool pool(disk_, options.buffer_pages);
    st = EgoJoinVectors(r, s, self, eps, options.norm,
                        options.page_size_bytes, disk_, &pool, sink, &ops);
  } else if (options.algorithm == Algorithm::kBfrj) {
    if (!r.tree().file_id().has_value() || !s.tree().file_id().has_value())
      return Status::InvalidArgument(
          "BFRJ: dataset trees lack node files (rebuild datasets)");
    PMJOIN_SPAN_OPS("bfrj", &ops);
    BufferPool pool(disk_, options.buffer_pages);
    st = BfrjJoin(r.tree(), s.tree(), input, eps, options.norm,
                  options.page_size_bytes, disk_, &pool, sink, &ops);
  } else {
    // Oracle for NLJ is built uncharged; pm algorithms charge the build.
    OpCounters* build_ops =
        options.algorithm == Algorithm::kNlj ? nullptr : &ops;
    std::optional<PredictionMatrix> built;
    const PredictionMatrix* matrix = resources.matrix;
    if (matrix == nullptr) {
      built = BuildPredictionMatrixHierarchical(
          r.tree(), s.tree(), r.num_pages(), s.num_pages(), eps, options.norm,
          options.filter_iterations, build_ops);
      matrix = &*built;
    } else if (build_ops != nullptr &&
               resources.matrix_build_ops != nullptr) {
      // Replay the memoized build's counters so a cache hit reports the
      // identical modeled CPU cost as a cold run (kNlj replays nothing:
      // its oracle build is uncharged either way).
      *build_ops += *resources.matrix_build_ops;
    }
    st = RunMatrixAlgorithm(input, *matrix, options, disk_->model(), disk_,
                            sink, &ops, &report, resources.shared_pool);
  }
  if (!st.ok()) return st;
  return FinishReport(std::move(report), io_before, ops);
}

Result<JoinReport> JoinDriver::RunKnnJoin(const VectorDataset& r,
                                          const VectorDataset& s, uint32_t k,
                                          const JoinOptions& options,
                                          PairSink* sink,
                                          const JoinResources& resources) {
  if (r.dims() != s.dims())
    return Status::InvalidArgument("RunKnnJoin: dimension mismatch");
  if (k == 0) return Status::InvalidArgument("RunKnnJoin: k must be >= 1");
  if (resources.matrix != nullptr)
    return Status::InvalidArgument(
        "RunKnnJoin: an ε prediction matrix is not a kNN artifact");
  if (resources.shared_pool != nullptr &&
      resources.shared_pool->capacity() < options.buffer_pages)
    return Status::InvalidArgument(
        "RunKnnJoin: shared pool smaller than options.buffer_pages");

  const IoStats io_before = disk_->stats();
  OpCounters ops;
  JoinReport report;
  report.algorithm = Algorithm::kKnn;
  PMJOIN_SPAN_OPS("join", &ops);

  std::optional<KnnCandidateMatrix> built;
  const KnnCandidateMatrix* matrix = resources.knn_matrix;
  if (matrix == nullptr) {
    PMJOIN_SPAN_OPS("knn_matrix", &ops);
    built = KnnCandidateMatrix::Build(r.page_mbrs(), s.page_mbrs(),
                                      options.norm, &ops);
    matrix = &*built;
  } else if (resources.knn_matrix_build_ops != nullptr) {
    // Same warm == cold convention as the ε matrices: replay the memoized
    // build's counters so a cache hit reports identical modeled CPU cost.
    ops += *resources.knn_matrix_build_ops;
  }
  report.matrix_rows = matrix->rows();
  report.matrix_cols = matrix->cols();
  // Phase boundary (paranoid builds): whether freshly built or memoized,
  // every candidate row must be complete and sorted before expansion.
  PMJOIN_DCHECK_OK(matrix->ValidateInvariants());
  PMJOIN_METRIC_GAUGE_SET("knn.k", static_cast<int64_t>(k));

  KnnJoinOptions knn_options;
  knn_options.k = k;
  knn_options.norm = options.norm;
  knn_options.self_join = &r == &s;

  std::unique_ptr<BufferPool> owned;
  BufferPool* pool = resources.shared_pool;
  if (pool == nullptr) {
    owned = std::make_unique<BufferPool>(disk_, options.buffer_pages);
    pool = owned.get();
  }

  KnnResultSink results(r.num_records(), k);
  Status st = KnnJoinVectors(r, s, *matrix, knn_options, pool, &results,
                             &ops);
  if (!st.ok()) return st;
  results.Emit(sink, &ops);
  return FinishReport(std::move(report), io_before, ops);
}

template <typename Kind>
Result<JoinReport> JoinDriver::RunSequence(const char* caller,
                                           const SequenceStore<Kind>& r,
                                           const SequenceStore<Kind>& s,
                                           typename Kind::Threshold threshold,
                                           const JoinOptions& options,
                                           PairSink* sink) {
  if (r.layout().window_len != s.layout().window_len)
    return Status::InvalidArgument(std::string(caller) +
                                   ": window length mismatch");
  const bool self = &r == &s;
  SequencePairJoiner<Kind> joiner(&r, &s, threshold, self);
  JoinInput input;
  input.r_file = r.file_id();
  input.s_file = s.file_id();
  input.r_pages = r.layout().NumPages();
  input.s_pages = s.layout().NumPages();
  input.self_join = self;
  input.joiner = &joiner;

  const IoStats io_before = disk_->stats();
  OpCounters ops;
  JoinReport report;
  report.algorithm = options.algorithm;
  PMJOIN_SPAN_OPS("join", &ops);

  Status st;
  if (options.algorithm == Algorithm::kEgo) {
    PMJOIN_SPAN_OPS("ego", &ops);
    BufferPool pool(disk_, options.buffer_pages);
    st = EgoJoinSequence(r, s, self, threshold, options.page_size_bytes,
                         disk_, &pool, sink, &ops);
  } else if (options.algorithm == Algorithm::kBfrj) {
    PMJOIN_SPAN_OPS("bfrj", &ops);
    BufferPool pool(disk_, options.buffer_pages);
    st = BfrjJoin(r.tree(), s.tree(), input, joiner.MatrixThreshold(),
                  Kind::kNorm, options.page_size_bytes, disk_, &pool, sink,
                  &ops);
  } else {
    OpCounters* build_ops =
        options.algorithm == Algorithm::kNlj ? nullptr : &ops;
    const PredictionMatrix matrix = BuildPredictionMatrixHierarchical(
        r.tree(), s.tree(), input.r_pages, input.s_pages,
        joiner.MatrixThreshold(), Kind::kNorm, options.filter_iterations,
        build_ops);
    st = RunMatrixAlgorithm(input, matrix, options, disk_->model(), disk_,
                            sink, &ops, &report, nullptr);
  }
  if (!st.ok()) return st;
  return FinishReport(std::move(report), io_before, ops);
}

Result<JoinReport> JoinDriver::RunTimeSeries(const TimeSeriesStore& r,
                                             const TimeSeriesStore& s,
                                             double eps,
                                             const JoinOptions& options,
                                             PairSink* sink) {
  return RunSequence<SeriesKind>("RunTimeSeries", r, s, eps, options, sink);
}

Result<JoinReport> JoinDriver::RunString(const StringSequenceStore& r,
                                         const StringSequenceStore& s,
                                         uint32_t max_edits,
                                         const JoinOptions& options,
                                         PairSink* sink) {
  return RunSequence<StringKind>("RunString", r, s, max_edits, options,
                                 sink);
}

}  // namespace pmjoin
