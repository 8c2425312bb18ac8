#ifndef PMJOIN_COMMON_OP_COUNTERS_H_
#define PMJOIN_COMMON_OP_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace pmjoin {

/// CPU work counters shared by all join operators.
///
/// The paper reports CPU-join cost separately from I/O cost (Figs. 10–11).
/// We count the dominant CPU operations explicitly so that the modeled CPU
/// time is deterministic and machine-independent; `CostModel` converts these
/// counts into modeled seconds.
struct OpCounters {
  /// Full distance evaluations between records, weighted by dimensionality:
  /// one d-dimensional Lp evaluation adds `d` to this counter.
  uint64_t distance_terms = 0;

  /// Record-pair candidacy checks that were resolved by a cheap filter
  /// (MINDIST, frequency distance, incremental diagonal update) without a
  /// full distance evaluation. Each adds 1.
  uint64_t filter_checks = 0;

  /// Dynamic-programming cells evaluated by edit-distance computations.
  uint64_t edit_cells = 0;

  /// MBR–MBR intersection / MINDIST tests (matrix construction, tree join).
  uint64_t mbr_tests = 0;

  /// Prediction-matrix entries touched by clustering / scheduling
  /// (preprocessing work, reported as "Preprocess" in Fig. 10).
  uint64_t cluster_ops = 0;

  /// Number of result pairs emitted.
  uint64_t result_pairs = 0;

  bool operator==(const OpCounters& other) const = default;

  /// Element-wise sum.
  OpCounters& operator+=(const OpCounters& other);

  /// Difference (this - other); counters are monotonic so use with
  /// snapshots taken before/after a phase.
  OpCounters Delta(const OpCounters& start) const;

  void Reset() { *this = OpCounters(); }

  std::string ToString() const;
};

/// Per-thread OpCounters shards for parallel operators.
///
/// Each worker charges its own shard with no synchronization (shards are
/// cache-line padded to avoid false sharing); the coordinator folds them
/// into a total after the workers have been joined. Because all counters
/// are sums, the folded total is independent of how work was distributed
/// across shards — a parallel run aggregates to exactly the serial counts.
class ShardedOpCounters {
 public:
  /// Creates `num_shards` zeroed shards (at least 1).
  explicit ShardedOpCounters(size_t num_shards);

  size_t num_shards() const { return num_shards_; }

  /// Shard `i`'s counters; each thread must use a distinct shard.
  OpCounters* shard(size_t i) { return &shards_[i].counters; }

  /// Adds every shard into `total` (no-op when `total` is null) and zeroes
  /// the shards for reuse.
  void DrainInto(OpCounters* total);

 private:
  struct alignas(64) PaddedCounters {
    OpCounters counters;
  };

  size_t num_shards_;
  std::unique_ptr<PaddedCounters[]> shards_;
};

}  // namespace pmjoin

#endif  // PMJOIN_COMMON_OP_COUNTERS_H_
