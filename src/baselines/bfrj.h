#ifndef PMJOIN_BASELINES_BFRJ_H_
#define PMJOIN_BASELINES_BFRJ_H_

#include <cstdint>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/joiners.h"
#include "geom/distance.h"
#include "index/rstar_tree.h"
#include "io/buffer_pool.h"

namespace pmjoin {

/// Breadth-First R-tree Join (Huang, Jing, Rundensteiner, VLDB '97) — the
/// paper's index-based competitor (§9).
///
/// The two R-trees are traversed level-synchronously in BFS order: the
/// list of qualifying node pairs of one level is expanded into the next
/// level's list by testing all child pairs (MINDIST <= threshold). The
/// BFS ordering groups accesses to each node (the original paper's global
/// optimization); here each level's pair list is processed sorted by
/// (r-node, s-node) and node pages are fetched through the buffer pool.
///
/// The intermediate pair list of a level is an on-disk structure whenever
/// it exceeds half the buffer (it must coexist with the node pages being
/// read): it is then written out and read back, charging sequential I/O.
/// `RequiredIntermediatePages` lets callers detect configurations where the
/// intermediates cannot be processed at all (the Fig. 13a footnote omits
/// BFRJ for buffers below 200 pages for this reason).
///
/// At the leaf level the qualifying data-page pairs are joined with
/// `input.joiner`, reading data pages through the pool in sorted order.
///
/// Both trees must have node files attached (RStarTree::AttachFile) so
/// node accesses are charged.
Status BfrjJoin(const RStarTree& r_tree, const RStarTree& s_tree,
                const JoinInput& input, double threshold, Norm norm,
                uint32_t page_size_bytes, StorageBackend* disk,
                BufferPool* pool, PairSink* sink, OpCounters* ops);

/// The peak intermediate-list size (in pages of `page_size_bytes`) that
/// `BfrjJoin` would need for this configuration, found by a dry run of the
/// BFS expansion (no I/O charged).
uint64_t BfrjPeakIntermediatePages(const RStarTree& r_tree,
                                   const RStarTree& s_tree, double threshold,
                                   Norm norm, uint32_t page_size_bytes);

}  // namespace pmjoin

#endif  // PMJOIN_BASELINES_BFRJ_H_
