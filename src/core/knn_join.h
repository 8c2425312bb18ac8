#ifndef PMJOIN_CORE_KNN_JOIN_H_
#define PMJOIN_CORE_KNN_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "geom/mbr.h"
#include "io/buffer_pool.h"

namespace pmjoin {

/// kNN join over paged vector datasets — the ε-join path's peer query
/// engine (DESIGN.md "kNN join").
///
/// Where the ε-join marks page pairs whose MINDIST clears a *fixed*
/// threshold (Theorem 1), the kNN join works with a *shrinking* one: each
/// R record maintains the statistic of its current k-th nearest neighbor
/// (+infinity until k candidates have been seen), which is an adaptive ε
/// that only tightens. Candidate S pages are expanded per R page in
/// ascending MINDIST order; a candidate whose page-level lower bound
/// exceeds every resident record's bound can be skipped — and so can every
/// candidate after it, since the row is sorted. The same per-record bound
/// short-circuits the kernel tiles (kernels::KnnCandidateBlock).
///
/// Determinism: neighbor sets are ordered by the exact double statistic
/// (DistanceStat) with an (statistic, id) tie-break, so the selected k are
/// the unique k smallest keys of the candidate multiset — independent of
/// expansion order and the float filter (which only drops
/// rows provably beyond the bound). Results are byte-identical to
/// ReferenceKnnJoin.

struct KnnJoinOptions {
  /// Neighbors per R record (>= 1). When k >= |S| every (non-identity)
  /// pair is a neighbor and no pruning ever fires.
  uint32_t k = 1;
  Norm norm = Norm::kL2;
  /// Per-row self join: only the identity pair r_id == s_id is skipped
  /// (unlike the ε self-join's unordered-pair convention).
  bool self_join = false;
  /// When false, every S page is expanded for every R page — the
  /// brute-force I/O baseline the bench and the pruning tests compare
  /// against. Answers are identical either way.
  bool prune = true;
};

/// Per-row bounded neighbor heaps — the kNN analogue of PairSink.
///
/// Each R record owns a max-heap of at most k (statistic, s_id) entries
/// ordered lexicographically, so the k-th bound is the heap top and ties
/// at the k-th distance resolve to the smaller id.
class KnnResultSink {
 public:
  struct Neighbor {
    double stat = 0.0;
    uint64_t id = 0;
  };

  /// Heaps for records [0, num_records), each holding at most `k`.
  KnnResultSink(uint64_t num_records, uint32_t k);

  /// Offers candidate `s_id` at exact statistic `stat` to record `r_id`'s
  /// heap; +infinity statistics (filtered kernel rows) are ignored.
  void Offer(uint64_t r_id, double stat, uint64_t s_id);

  /// Record `r_id`'s current k-th-neighbor statistic: +infinity while the
  /// heap is unfilled, else the largest retained statistic. This is the
  /// adaptive ε — it never grows.
  double BoundStat(uint64_t r_id) const;

  uint32_t k() const { return k_; }
  uint64_t num_records() const { return heaps_.size(); }

  /// Record `r_id`'s neighbors in ascending (statistic, id) order.
  std::vector<Neighbor> SortedNeighbors(uint64_t r_id) const;

  /// Emits every neighbor pair — r ascending, (statistic, id) ascending
  /// within a row — charging `ops->result_pairs` (when `ops` is non-null).
  /// Returns the number of pairs emitted.
  uint64_t Emit(PairSink* sink, OpCounters* ops) const;

 private:
  uint32_t k_;
  std::vector<std::vector<Neighbor>> heaps_;
};

/// Per-R-page candidate lists over the page MBRs: row p holds every S page
/// ascending by (page-level lower-bound statistic, page id) — the
/// materialized per-row priority queue of page pairs. The bound is the
/// MINDIST statistic in the same comparison space as the record statistic
/// (Mbr::MinDistSquared for L2, MinDist for L1/Linf), so it is directly
/// comparable against KnnResultSink::BoundStat.
///
/// The structure is ε-free — one build serves every k and both query
/// types' dataset pair — which is what lets the join server cache it
/// alongside the ε prediction matrices (server/artifact_cache.h).
class KnnCandidateMatrix {
 public:
  struct Candidate {
    double bound_stat = 0.0;
    uint32_t s_page = 0;
  };

  /// Builds the candidate lists from the two page-MBR sets. Charges
  /// `ops->mbr_tests` for the rows*cols MINDIST evaluations and
  /// `ops->cluster_ops` for the entries ordered (when `ops` is non-null).
  static KnnCandidateMatrix Build(const std::vector<Mbr>& r_mbrs,
                                  const std::vector<Mbr>& s_mbrs, Norm norm,
                                  OpCounters* ops);

  const std::vector<Candidate>& Row(uint32_t r_page) const {
    return rows_[r_page];
  }
  uint32_t rows() const { return static_cast<uint32_t>(rows_.size()); }
  uint32_t cols() const { return cols_; }

  /// Structural audit: every row lists each S page exactly once, sorted
  /// ascending by (bound, page). O(rows*cols); tests and paranoid builds.
  Status ValidateInvariants() const;

 private:
  std::vector<std::vector<Candidate>> rows_;
  uint32_t cols_ = 0;
};

/// Runs the kNN join: for every record of `r`, the k nearest records of
/// `s` under `options.norm`, accumulated into `results` (which must be
/// shaped (r.num_records(), options.k)). All page access goes through
/// `pool` (both datasets must live on its backend); `ops` is charged the
/// deterministic CPU cost — `dims` distance terms per record pair of every
/// expanded page pair (early abandoning changes wall time, never the
/// charge) plus one filter check per candidate page considered. Runs on
/// the calling thread.
Status KnnJoinVectors(const VectorDataset& r, const VectorDataset& s,
                      const KnnCandidateMatrix& matrix,
                      const KnnJoinOptions& options, BufferPool* pool,
                      KnnResultSink* results, OpCounters* ops);

}  // namespace pmjoin

#endif  // PMJOIN_CORE_KNN_JOIN_H_
