#ifndef PMJOIN_CORE_JOINERS_H_
#define PMJOIN_CORE_JOINERS_H_

#include <cstdint>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/page_file.h"
#include "seq/sequence_store.h"

namespace pmjoin {

/// In-memory join of one page pair. Implementations embody the join
/// predicate (vector ε-join, subsequence ε-join, string k-edit join) and
/// the CPU accounting; operators (NLJ, pm-NLJ, SC/CC executor, baselines)
/// decide *which* page pairs to join and in what order.
///
/// The executor guarantees both pages are buffer-resident before calling
/// `JoinPages` (I/O is charged by the buffer pool, never here).
class PagePairJoiner {
 public:
  virtual ~PagePairJoiner() = default;

  /// Joins page `r_page` of R with page `s_page` of S: emits every
  /// predicate-satisfying record/window pair to `sink` and charges the CPU
  /// counters for the work performed.
  virtual void JoinPages(uint32_t r_page, uint32_t s_page, PairSink* sink,
                         OpCounters* ops) = 0;

  /// Charges `ops` the deterministic CPU cost of a *record-level scan* of
  /// the page pair — what an operator with no index summaries (plain NLJ)
  /// performs — excluding verification work that only fires on
  /// near-matches. Plain NLJ charges this for every page pair; for
  /// unmarked pairs no verification can fire (Theorem 1 plus the
  /// lower-bounding filters), so charging this instead of executing the
  /// kernel leaves all reported numbers identical to a real execution at a
  /// fraction of the wall time (the DESIGN.md "simulation shortcut").
  /// Index-assisted operators (pm-NLJ, SC, CC) never call this — their
  /// JoinPages uses the sub-box summaries and charges what it does.
  virtual void ChargeScanned(uint32_t r_page, uint32_t s_page,
                             OpCounters* ops) const = 0;
};

/// Identifies the two sides of a join for the I/O layer plus the joiner
/// that processes page pairs. For a self join, `r_file == s_file` and the
/// joiner applies the de-duplication rule (emit each unordered pair once).
struct JoinInput {
  uint32_t r_file = 0;
  uint32_t s_file = 0;
  uint32_t r_pages = 0;
  uint32_t s_pages = 0;
  bool self_join = false;
  PagePairJoiner* joiner = nullptr;

  PageId RPage(uint32_t p) const { return PageId{r_file, p}; }
  PageId SPage(uint32_t p) const { return PageId{s_file, p}; }
};

/// ε-join of two vector datasets: emits (orig_id_r, orig_id_s) for record
/// pairs with distance <= eps under `norm`. For a self join (r == s), each
/// unordered pair is emitted once (orig_id_r < orig_id_s).
///
/// CPU accounting: every record pair costs `dims` distance terms (the
/// deterministic full-evaluation cost; the implementation sweeps each
/// page pair in coordinate-0 order and evaluates only the pairs within ε
/// in that coordinate, and the charge does not depend on it).
class VectorPairJoiner : public PagePairJoiner {
 public:
  VectorPairJoiner(const VectorDataset* r, const VectorDataset* s, double eps,
                   Norm norm, bool self_join);

  void JoinPages(uint32_t r_page, uint32_t s_page, PairSink* sink,
                 OpCounters* ops) override;
  void ChargeScanned(uint32_t r_page, uint32_t s_page,
                     OpCounters* ops) const override;

  /// The page-level lower-bound threshold for the prediction matrix: raw ε.
  double MatrixThreshold() const { return eps_; }

 private:
  const VectorDataset* r_;
  const VectorDataset* s_;
  double eps_;
  Norm norm_;
  bool self_join_;
};

/// Subsequence join of two sequence stores of one kind (paper §3): emits
/// (window_start_r, window_start_s) for window pairs within the threshold
/// — edit distance <= k for strings, L2 <= ε on length-L windows for time
/// series. Self joins emit each unordered, non-overlapping pair once
/// (r + L <= s).
template <typename Kind>
class SequencePairJoiner : public PagePairJoiner {
 public:
  SequencePairJoiner(const SequenceStore<Kind>* r, const SequenceStore<Kind>* s,
                     typename Kind::Threshold threshold, bool self_join);

  void JoinPages(uint32_t r_page, uint32_t s_page, PairSink* sink,
                 OpCounters* ops) override;
  void ChargeScanned(uint32_t r_page, uint32_t s_page,
                     OpCounters* ops) const override;

  /// The page-level threshold in feature space, under Kind::kNorm: the
  /// threshold over Kind::FeatureScale — 2k for strings (ED >= L1/2, see
  /// seq/frequency_vector.h), ε / sqrt(L/f) for series (seq/paa.h).
  double MatrixThreshold() const;

 private:
  const SequenceStore<Kind>* r_;
  const SequenceStore<Kind>* s_;
  typename Kind::Threshold threshold_;
  bool self_join_;
};

using StringPairJoiner = SequencePairJoiner<StringKind>;
using TimeSeriesPairJoiner = SequencePairJoiner<SeriesKind>;

}  // namespace pmjoin

#endif  // PMJOIN_CORE_JOINERS_H_
