#ifndef PMJOIN_CORE_PLANE_SWEEP_H_
#define PMJOIN_CORE_PLANE_SWEEP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/op_counters.h"
#include "core/prediction_matrix.h"
#include "geom/mbr.h"
#include "index/rstar_tree.h"

namespace pmjoin {

/// A box with a caller-defined id (page or node), the unit of the sweep.
struct SweepItem {
  Mbr box;
  uint32_t id = 0;
};

/// Plane sweep over two box sets: invokes `emit(r, s)` for every pair whose
/// per-dimension gap is <= `threshold` in every dimension *and* whose exact
/// MINDIST under `norm` is <= `threshold`.
///
/// This is the candidate-pair engine of the prediction-matrix construction
/// (Fig. 1 step 5): endpoints (extended by threshold/2) are processed in
/// ascending first-coordinate order with active lists for both sets.
/// `ops->mbr_tests` counts box-pair tests.
void SweepPairs(std::span<const SweepItem> r, std::span<const SweepItem> s,
                double threshold, Norm norm, OpCounters* ops,
                const std::function<void(const SweepItem&,
                                         const SweepItem&)>& emit);

/// The paper's iterative MBR filter (Fig. 2), applied to the child sets of
/// a node pair before sweeping them: children that cannot participate in
/// any pair within `threshold` are removed. Runs at most `max_iterations`
/// rounds (the paper uses k = 5) or until a fixpoint. Returns the indices
/// (into `r` / `s`) of the surviving items.
///
/// Correctness: an (r_i, s_j) pair within `threshold` implies that both
/// extended boxes intersect the iterated cover B_RS, so filtered items are
/// provably irrelevant — the filter never loses a marked entry (tested in
/// tests/core/plane_sweep_test.cc).
void FilterChildren(std::span<const SweepItem> r, std::span<const SweepItem> s,
                    double threshold, uint32_t max_iterations,
                    OpCounters* ops, std::vector<uint32_t>* r_survivors,
                    std::vector<uint32_t>* s_survivors);

/// Builds the prediction matrix by a flat leaf-level sweep over the two
/// page-MBR lists: entry (i, j) is marked iff MINDIST(r_pages[i],
/// s_pages[j]) <= threshold under `norm`. Used for sequence stores, whose
/// page summaries form a flat list (MR-/MRS-index leaf level).
PredictionMatrix BuildPredictionMatrixFlat(const std::vector<Mbr>& r_pages,
                                           const std::vector<Mbr>& s_pages,
                                           double threshold, Norm norm,
                                           OpCounters* ops);

/// Builds the prediction matrix by the hierarchical algorithm of Fig. 1:
/// simultaneous descent of the two R-trees, filtering (Fig. 2) and
/// sweeping the child sets of each intersecting node pair. Produces exactly
/// the same matrix as the flat construction (property-tested) at much lower
/// CPU cost for large page counts.
///
/// `r_page_count`/`s_page_count` size the matrix; leaf entry ids of the
/// trees must be page indices into those ranges.
PredictionMatrix BuildPredictionMatrixHierarchical(
    const RStarTree& r_tree, const RStarTree& s_tree, uint32_t r_page_count,
    uint32_t s_page_count, double threshold, Norm norm,
    uint32_t filter_iterations, OpCounters* ops);

}  // namespace pmjoin

#endif  // PMJOIN_CORE_PLANE_SWEEP_H_
