// The benchmark's workloads. Each runs a closed-loop query stream through
// the library's public entry point (JoinDriver or JoinServer) and can
// replay the same stream on fresh state through the individual layer
// calls, timing each call into a SpanLog.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_support.h"
#include "common/status.h"
#include "core/join_driver.h"
#include "core/joiners.h"
#include "core/prediction_matrix.h"
#include "io/buffer_pool.h"
#include "io/storage_backend.h"

namespace perfbench {

/// Span query id of the replay's set-up work (dataset builds).
inline constexpr uint32_t kSetupQuery = 0xFFFFFFFFu;

/// Counts the replay gathers per query for the per-layer metrics.
struct LayerCounts {
  bool warmup = false;     ///< An untimed warm-up query of set-up.
  bool eps_query = false;  ///< Clustered ε-join (SC or CC).
  bool string_join = false;
  bool knn = false;
  bool matrix_built = false;     ///< This query built its ε matrix.
  uint64_t build_mbr_tests = 0;  ///< mbr_tests charged by that build.
  uint64_t marked_entries = 0;
  double matrix_selectivity = 0.0;
  uint64_t clusters = 0;
  uint64_t clustering_ops = 0;  ///< cluster_ops charged by clustering.
  uint32_t dims = 0;            ///< Vector dimensionality (0 for strings).
  pmjoin::StorageBackend::MeasuredIo measured;  ///< Join-phase delta.
  double modeled_join_cpu_s = 0.0;
  double modeled_io_s = 0.0;
};

struct WorkloadConfig {
  uint64_t seed = 1;
  /// Tiny inputs for the self-test; the stream shape is unchanged.
  bool tiny = false;
  /// Directory for file-backend page files; the caller creates and
  /// removes it.
  std::string scratch_dir;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// "sim" or "file".
  virtual const char* backend() const = 0;

  /// Generates the inputs from the seed (the benchmark's own work, not
  /// part of set-up).
  virtual pmjoin::Status Prepare() = 0;

  /// Builds every structure the stream needs and runs the untimed warm-up
  /// queries. The caller times it as set-up.
  virtual pmjoin::Status Setup() = 0;

  /// Releases what Setup built.
  virtual void Teardown() = 0;

  /// Query `i` of the stream, through the public entry point.
  virtual QueryOutcome Run(uint64_t i) = 0;

  /// The stream repeats with this period.
  virtual uint64_t CycleLength() const = 0;

  /// Rebuilds fresh state and replays set-up, the warm-ups and the first
  /// `n` stream queries through the layer calls. Appends one outcome and
  /// its counts per replayed query, warm-ups first (flagged); each query's
  /// spans carry its index in `outcomes`, set-up spans kSetupQuery.
  virtual pmjoin::Status Replay(uint64_t n, SpanLog* log,
                                std::vector<QueryOutcome>* outcomes,
                                std::vector<LayerCounts>* counts) = 0;

  /// Bytes the replay's dataset Persist wrote, in MB (0 without one).
  virtual double setup_write_mb() const { return 0.0; }

  /// Checks each outcome against a brute-force reference where that is
  /// cheap; sets (*wrong)[i] for every wrong answer. Workloads without a
  /// cheap reference check what they can (soundness of a sample).
  virtual void Verify(const std::vector<QueryOutcome>& outcomes,
                      std::vector<bool>* wrong,
                      std::vector<std::string>* notes) = 0;
};

/// The traced form of the serial clustered executor (SC or CC): clustering,
/// scheduling, then per cluster ClusterPageSet, BufferPool::PinBatch,
/// JoinEntries and UnpinBatch — the calls JoinDriver makes with default
/// options, each under its own span. `join_span` names the JoinEntries
/// span ("geom.join" or "seq.join").
struct ClusteredReplay {
  const pmjoin::JoinInput* input = nullptr;
  const pmjoin::PredictionMatrix* matrix = nullptr;
  pmjoin::Algorithm algorithm = pmjoin::Algorithm::kSc;
  uint32_t buffer_pages = 0;
  /// JoinOptions::seed of the entry point (CC draws its seeds from it).
  uint64_t seed = 0;
  pmjoin::BufferPool* pool = nullptr;
  const char* join_span = "geom.join";
};
pmjoin::Status ReplayClustered(const ClusteredReplay& query, SpanLog* log,
                               pmjoin::PairSink* sink,
                               pmjoin::OpCounters* ops, LayerCounts* counts);

/// The replayed query's modeled seconds, as JoinReport::TotalSeconds()
/// computes them from its IoStats and OpCounters, and their parts.
void FillModeled(const pmjoin::DiskModel& model, QueryOutcome* out,
                 LayerCounts* counts);

std::unique_ptr<Workload> MakeRoadWorkload(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeDnaWorkload(const WorkloadConfig& config);
std::unique_ptr<Workload> MakeServeWorkload(const WorkloadConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
