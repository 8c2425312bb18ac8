#include "core/joiners.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/check.h"
#include "geom/distance_kernels.h"

namespace pmjoin {

VectorPairJoiner::VectorPairJoiner(const VectorDataset* r,
                                   const VectorDataset* s, double eps,
                                   Norm norm, bool self_join)
    : r_(r), s_(s), eps_(eps), norm_(norm), self_join_(self_join) {
  assert(!self_join || r == s);
}

namespace {

/// Kernel tile width for the page-pair join: one mask buffer of this many
/// rows lives on the stack, and an S window is processed in ascending
/// tiles of this size per R record, so emission order is exactly the
/// scalar double loop's (i ascending, j ascending).
constexpr uint32_t kJoinTile = 256;

/// Relative widening of the sweep window's half-width ε. Any pair the
/// scalar reference accepts has an exact coordinate-0 gap of at most ε
/// plus a few double ulps of rounding, far inside this slack.
constexpr double kWindowSlack = 1.0 + 1e-9;

/// Coordinate 0 of row `j` — the key a page's rows ascend in.
inline float FirstCoordinate(const kernels::BlockView& block, uint32_t j) {
  return block.data[uint64_t(j) * block.stride];
}

/// The sorted-page invariant of VectorDataset::PageBlock, which the sweep
/// relies on (checked in paranoid builds).
bool AscendsInFirstCoordinate(const kernels::BlockView& block) {
  for (uint32_t j = 1; j < block.count; ++j) {
    if (FirstCoordinate(block, j) < FirstCoordinate(block, j - 1))
      return false;
  }
  return true;
}

}  // namespace

void VectorPairJoiner::JoinPages(uint32_t r_page, uint32_t s_page,
                                 PairSink* sink, OpCounters* ops) {
  const kernels::BlockView r_block = r_->PageBlock(r_page);
  const kernels::BlockView s_block = s_->PageBlock(s_page);
  const size_t dims = r_->dims();
  PMJOIN_DCHECK(AscendsInFirstCoordinate(r_block) &&
                    AscendsInFirstCoordinate(s_block),
                "page rows must ascend in coordinate 0: pages ", r_page,
                ", ", s_page);
  // Sort-sweep over the pages' coordinate-0 order. Each coordinate gap is
  // at most the L1, L2 or Linf distance, so only S rows whose coordinate
  // 0 lies within ε of the R row's can qualify; both pages ascend in it,
  // so that window is one contiguous slot range whose ends only move
  // forward as i grows. The kernels still decide every pair in the
  // window, exactly as the scalar WithinDistance reference (DESIGN.md
  // "Kernel layer"), and the (i, j) emission order is the scalar double
  // loop's, so the PairSink sees a byte-identical stream. The comparisons
  // are written so that a NaN ε opens the window to the whole page.
  // Counters are charged for the full nr·ns scan — the window can never
  // show up in a reported number.
  const double reach = std::fabs(eps_) * kWindowSlack;
  uint8_t mask[kJoinTile];
  uint32_t lo = 0;
  uint32_t hi = 0;
  for (uint32_t i = 0; i < r_block.count; ++i) {
    const float* x = r_block.data + uint64_t(i) * r_block.stride;
    const double from = x[0] - reach;
    const double to = x[0] + reach;
    while (lo < s_block.count && FirstCoordinate(s_block, lo) < from) ++lo;
    while (hi < s_block.count && !(FirstCoordinate(s_block, hi) > to)) ++hi;
    const uint64_t xid = r_->OriginalId(r_page, i);
    for (uint32_t tile_start = lo; tile_start < hi; tile_start += kJoinTile) {
      const uint32_t tile_count = std::min(kJoinTile, hi - tile_start);
      const kernels::BlockView tile{
          s_block.data + uint64_t(tile_start) * s_block.stride, tile_count,
          s_block.stride};
      if (kernels::WithinMaskBlock(x, tile, dims, norm_, eps_, mask) == 0)
        continue;
      for (uint32_t jj = 0; jj < tile_count; ++jj) {
        if (!mask[jj]) continue;
        const uint64_t yid = s_->OriginalId(s_page, tile_start + jj);
        if (!self_join_ || xid < yid) {
          sink->OnPair(xid, yid);
          if (ops != nullptr) ++ops->result_pairs;
        }
      }
    }
  }
  if (ops != nullptr)
    ops->distance_terms += uint64_t(r_block.count) * s_block.count * dims;
}

void VectorPairJoiner::ChargeScanned(uint32_t r_page, uint32_t s_page,
                                     OpCounters* ops) const {
  if (ops == nullptr) return;
  ops->distance_terms += uint64_t(r_->PageRecordCount(r_page)) *
                         s_->PageRecordCount(s_page) * r_->dims();
}

template <typename Kind>
SequencePairJoiner<Kind>::SequencePairJoiner(const SequenceStore<Kind>* r,
                                             const SequenceStore<Kind>* s,
                                             typename Kind::Threshold threshold,
                                             bool self_join)
    : r_(r), s_(s), threshold_(threshold), self_join_(self_join) {
  assert(!self_join || r == s);
  assert(r->layout().window_len == s->layout().window_len);
  assert(r->feature_dims() == s->feature_dims());
}

template <typename Kind>
double SequencePairJoiner<Kind>::MatrixThreshold() const {
  return threshold_ /
         Kind::FeatureScale(r_->layout().window_len, r_->feature_dims());
}

template <typename Kind>
void SequencePairJoiner<Kind>::JoinPages(uint32_t r_page, uint32_t s_page,
                                         PairSink* sink, OpCounters* ops) {
  // Multi-resolution pruning (MR-/MRS-index): compare the pages' sub-box
  // summaries and run the window kernel only on window-range pairs the
  // feature-space lower bound cannot dismiss. An unmarked page pair never
  // expands any sub-pair (sub-box MINDIST >= page MINDIST), so
  // ChargeScanned's grid-only cost is exact for resultless pairs.
  const SequenceLayout& rl = r_->layout();
  const SequenceLayout& sl = s_->layout();
  const double threshold = MatrixThreshold();
  WindowJoinOptions options;
  options.window_len = rl.window_len;
  options.self_join = self_join_;
  // Coarse level first, descending to the fine grid only inside
  // surviving coarse pairs.
  const uint32_t nca = rl.CoarseBoxCount(r_page);
  const uint32_t ncb = sl.CoarseBoxCount(s_page);
  for (uint32_t ca = 0; ca < nca; ++ca) {
    const Mbr& coarse_a = r_->CoarseBoxMbr(r_page, ca);
    for (uint32_t cb = 0; cb < ncb; ++cb) {
      if (ops != nullptr) ++ops->mbr_tests;
      if (!coarse_a.MinDistWithin(s_->CoarseBoxMbr(s_page, cb), Kind::kNorm,
                                  threshold))
        continue;
      uint32_t a_lo, a_hi, b_lo, b_hi;
      rl.CoarseToFine(r_page, ca, &a_lo, &a_hi);
      sl.CoarseToFine(s_page, cb, &b_lo, &b_hi);
      for (uint32_t a = a_lo; a < a_hi; ++a) {
        const Mbr& box_a = r_->SubBoxMbr(r_page, a);
        for (uint32_t b = b_lo; b < b_hi; ++b) {
          if (ops != nullptr) ++ops->mbr_tests;
          if (!box_a.MinDistWithin(s_->SubBoxMbr(s_page, b), Kind::kNorm,
                                   threshold))
            continue;
          WindowRange xr{rl.SubBoxFirstWindow(r_page, a),
                         rl.SubBoxWindowCount(r_page, a)};
          WindowRange yr{sl.SubBoxFirstWindow(s_page, b),
                         sl.SubBoxWindowCount(s_page, b)};
          Kind::JoinWindows(r_->symbols(), s_->symbols(), xr, yr, options,
                            threshold_, r_->feature_dims(), sink, ops);
        }
      }
    }
  }
}

template <typename Kind>
void SequencePairJoiner<Kind>::ChargeScanned(uint32_t r_page, uint32_t s_page,
                                             OpCounters* ops) const {
  if (ops == nullptr) return;
  // Record-level diagonal scan: one O(L) tracker start per diagonal, one
  // O(1) update per window pair. Verification (the strings' banded DP) is
  // excluded — the caller adds the actual edit cells when it executes.
  const uint64_t nx = r_->layout().WindowCount(r_page);
  const uint64_t ny = s_->layout().WindowCount(s_page);
  if (nx == 0 || ny == 0) return;
  const uint64_t diagonals = nx + ny - 1;
  ops->*Kind::kDiagonalStart += diagonals * r_->layout().window_len;
  ops->filter_checks += nx * ny - diagonals;
}

template class SequencePairJoiner<StringKind>;
template class SequencePairJoiner<SeriesKind>;

}  // namespace pmjoin
