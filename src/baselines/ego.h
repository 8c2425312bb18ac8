#ifndef PMJOIN_BASELINES_EGO_H_
#define PMJOIN_BASELINES_EGO_H_

#include <cstdint>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "data/vector_dataset.h"
#include "geom/distance.h"
#include "io/buffer_pool.h"
#include "seq/sequence_store.h"

namespace pmjoin {

/// Epsilon Grid Ordering join (Böhm et al., SIGMOD '01) — the paper's
/// strongest non-index competitor (§9).
///
/// Point data: every record is assigned to the ε-grid cell containing it;
/// records are reordered into the lexicographic cell order (an external
/// sort, charged as sequential read+write passes), then joined with a
/// sweep whose active window spans the ±1 band of first-dimension cells —
/// two points within ε must be in cells differing by at most 1 in every
/// dimension.
///
/// Sequence data: the ordering requires materializing one feature vector
/// per window (a sequence cannot be reordered in place — §3), which
/// inflates the file by the feature dimensionality, and every surviving
/// candidate must be verified against the *original* sequence pages with
/// random reads. This is the behaviour the paper reports as EGO's
/// degradation on sequence datasets ("the data cannot be reordered").
///
/// The sweep, sort and verification all charge CPU and I/O through the
/// shared counters/pool, so EGO rows in the benches are directly
/// comparable with SC/NLJ rows.

/// ε-join of two vector datasets. `self_join` requires r == s. The
/// sorted copies are paged at `page_size_bytes`, the data's page size.
Status EgoJoinVectors(const VectorDataset& r, const VectorDataset& s,
                      bool self_join, double eps, Norm norm,
                      uint32_t page_size_bytes, StorageBackend* disk,
                      BufferPool* pool, PairSink* sink, OpCounters* ops);

/// Subsequence join of two sequence stores (edit distance <= k for
/// strings, L2 <= ε for time series). Each candidate the feature-space
/// sweep finds is verified against the original pages, which pins two
/// pages on top of the sweep's two: a pool of fewer than 4 pages can fail
/// with BufferFull. The feature copies are paged at `page_size_bytes`,
/// the stores' page size.
template <typename Kind>
Status EgoJoinSequence(const SequenceStore<Kind>& r,
                       const SequenceStore<Kind>& s, bool self_join,
                       typename Kind::Threshold threshold,
                       uint32_t page_size_bytes, StorageBackend* disk,
                       BufferPool* pool, PairSink* sink, OpCounters* ops);

}  // namespace pmjoin

#endif  // PMJOIN_BASELINES_EGO_H_
