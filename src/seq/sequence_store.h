#ifndef PMJOIN_SEQ_SEQUENCE_STORE_H_
#define PMJOIN_SEQ_SEQUENCE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/op_counters.h"
#include "common/pair_sink.h"
#include "common/result.h"
#include "geom/distance.h"
#include "geom/mbr.h"
#include "index/rstar_tree.h"
#include "io/storage_backend.h"
#include "seq/paa.h"
#include "seq/window_join.h"

namespace pmjoin {

/// Maps window-start positions of a sequence onto fixed-size disk pages.
///
/// A subsequence join (paper §3) asks for all pairs of length-L windows
/// within distance ε. Windows overlap, so (paper §3) the sequence can be
/// neither reordered on disk nor fully replicated. Instead, page p covers
/// the C windows starting in block [p·C, (p+1)·C); the symbols of those
/// windows span [p·C, p·C + C + L − 1). The trailing L−1 symbols are
/// *replicated* from the next block into the page (a (L−1)/C overhead,
/// a few percent) so that any page pair is self-contained for joining.
/// This replication substitution is recorded in DESIGN.md.
struct SequenceLayout {
  uint64_t num_symbols = 0;
  /// Window (subsequence) length L.
  uint32_t window_len = 0;
  /// Windows per page, C.
  uint32_t windows_per_page = 0;
  /// Windows per (fine) sub-box, T — the finest within-page summary
  /// granularity of the MR-/MRS-index hierarchy. A page stores ceil(C/T)
  /// sub-boxes; page-pair joins prune window *ranges* at sub-box
  /// granularity before any per-window work.
  uint32_t windows_per_sub_box = 64;

  /// Windows per coarse box (the next resolution level up): must be a
  /// multiple of windows_per_sub_box. Page-pair joins test coarse pairs
  /// first and only descend to the fine grid inside surviving coarse
  /// pairs.
  uint32_t windows_per_coarse_box = 256;

  /// Number of sub-boxes of page p.
  uint32_t SubBoxCount(uint32_t page) const {
    return (WindowCount(page) + windows_per_sub_box - 1) /
           windows_per_sub_box;
  }

  /// Number of coarse boxes of page p.
  uint32_t CoarseBoxCount(uint32_t page) const {
    return (WindowCount(page) + windows_per_coarse_box - 1) /
           windows_per_coarse_box;
  }

  /// Fine sub-boxes per coarse box.
  uint32_t FinePerCoarse() const {
    return windows_per_coarse_box / windows_per_sub_box;
  }

  /// Fine sub-box index range [lo, hi) of coarse box `cb` of page `page`.
  void CoarseToFine(uint32_t page, uint32_t cb, uint32_t* lo,
                    uint32_t* hi) const {
    *lo = cb * FinePerCoarse();
    *hi = std::min(SubBoxCount(page), *lo + FinePerCoarse());
  }

  /// Window-start position of sub-box `b` of page `page` and its width.
  uint64_t SubBoxFirstWindow(uint32_t page, uint32_t b) const {
    return FirstWindow(page) + uint64_t(b) * windows_per_sub_box;
  }
  uint32_t SubBoxWindowCount(uint32_t page, uint32_t b) const {
    const uint32_t remaining =
        WindowCount(page) - b * windows_per_sub_box;
    return remaining < windows_per_sub_box ? remaining
                                           : windows_per_sub_box;
  }

  /// Total number of length-L windows: num_symbols − L + 1.
  uint64_t NumWindows() const {
    return num_symbols >= window_len ? num_symbols - window_len + 1 : 0;
  }

  /// Number of pages.
  uint32_t NumPages() const {
    const uint64_t w = NumWindows();
    return static_cast<uint32_t>((w + windows_per_page - 1) /
                                 windows_per_page);
  }

  /// First window (global start position) covered by page p.
  uint64_t FirstWindow(uint32_t page) const {
    return uint64_t(page) * windows_per_page;
  }

  /// Number of windows covered by page p (short last page allowed).
  uint32_t WindowCount(uint32_t page) const {
    const uint64_t first = FirstWindow(page);
    const uint64_t remaining = NumWindows() - first;
    return static_cast<uint32_t>(
        remaining < windows_per_page ? remaining : windows_per_page);
  }

  /// Page covering window-start `w`.
  uint32_t PageOfWindow(uint64_t w) const {
    return static_cast<uint32_t>(w / windows_per_page);
  }
};

/// The two window summaries of the subsequence join (paper §3, Table 1).
/// A kind fixes the symbol type, the threshold type, the summary norm and
/// its contraction factor, the input check, the window-feature cursor, the
/// sidecar magic and the window-level kernels; SequenceStore,
/// SequencePairJoiner (core/joiners.h) and EgoJoinSequence
/// (baselines/ego.h) are written once over it.
///
/// Strings (MRS-index): symbols over an alphabet of `feature_dims`
/// letters, summarized by letter-frequency vectors under L1. ED >= L1/2
/// (seq/frequency_vector.h), so a k-edit threshold is 2k in feature space.
struct StringKind {
  using Symbol = uint8_t;
  /// Largest edit distance k.
  using Threshold = uint32_t;
  static constexpr Norm kNorm = Norm::kL1;
  static constexpr uint64_t kMagic = 0x31305351534A4D50ULL;  // "PMJSQS01"
  /// The counter a diagonal's O(L) tracker start is charged to.
  static constexpr uint64_t OpCounters::*kDiagonalStart =
      &OpCounters::filter_checks;

  /// Raw distance >= FeatureScale · feature distance.
  static double FeatureScale(uint32_t, uint32_t) { return 0.5; }

  /// InvalidArgument unless 1 <= alphabet size <= 256 and every symbol is
  /// in the alphabet.
  static Status CheckInput(std::span<const Symbol> symbols,
                           uint32_t feature_dims, uint32_t window_len);

  /// Frequency vectors of consecutive windows: one O(1) slide per step.
  class WindowFeatures {
   public:
    WindowFeatures(std::span<const Symbol> symbols, uint32_t feature_dims,
                   uint32_t window_len);
    /// Writes the current window's features to `out` and advances.
    void Next(std::span<float> out);

   private:
    std::span<const Symbol> symbols_;
    uint32_t window_len_;
    uint64_t w_ = 0;
    std::vector<uint32_t> freq_;
  };

  /// The window kernel: sliding frequency filter, then banded edit DP.
  static void JoinWindows(std::span<const Symbol> x, std::span<const Symbol> y,
                          WindowRange xr, WindowRange yr,
                          const WindowJoinOptions& options, Threshold threshold,
                          uint32_t feature_dims, PairSink* sink,
                          OpCounters* ops) {
    JoinStringWindows(x, y, xr, yr, options, threshold, feature_dims, sink,
                      ops);
  }

  /// EGO's feature file: every window's frequency vector, one filter check
  /// each.
  static void MaterializeWindows(std::span<const Symbol> symbols,
                                 uint32_t feature_dims, uint32_t window_len,
                                 std::vector<float>* out, OpCounters* ops);

  /// EGO's grid cell width: the feature threshold, at least 1 (the
  /// features are integers and k may be 0).
  static double CellWidth(double feature_threshold) {
    return std::max(1.0, feature_threshold);
  }

  /// Exact check of one window pair: ED <= k (banded DP, edit cells
  /// charged).
  static bool WindowsMatch(std::span<const Symbol> x, std::span<const Symbol> y,
                           Threshold threshold, OpCounters* ops);
};

/// Time series (MR-index): float values, summarized by `feature_dims` PAA
/// segment means under L2; ||x − y|| >= sqrt(L/f)·||PAA(x) − PAA(y)||
/// (seq/paa.h). Distances are L2 in raw space.
struct SeriesKind {
  using Symbol = float;
  /// ε.
  using Threshold = double;
  static constexpr Norm kNorm = Norm::kL2;
  static constexpr uint64_t kMagic = 0x31305451534A4D50ULL;  // "PMJSQT01"
  static constexpr uint64_t OpCounters::*kDiagonalStart =
      &OpCounters::distance_terms;

  static double FeatureScale(uint32_t window_len, uint32_t feature_dims) {
    return PaaScale(window_len, feature_dims);
  }

  /// InvalidArgument unless f >= 1 divides L and every value is finite.
  static Status CheckInput(std::span<const Symbol> values,
                           uint32_t feature_dims, uint32_t window_len);

  /// PAA features of consecutive windows from prefix sums, O(f) each.
  class WindowFeatures {
   public:
    WindowFeatures(std::span<const Symbol> values, uint32_t feature_dims,
                   uint32_t window_len);
    void Next(std::span<float> out);

   private:
    std::vector<double> prefix_;
    uint32_t segment_;
    uint64_t w_ = 0;
  };

  /// The window kernel: sliding squared-L2 tracker per diagonal.
  static void JoinWindows(std::span<const Symbol> x, std::span<const Symbol> y,
                          WindowRange xr, WindowRange yr,
                          const WindowJoinOptions& options, Threshold threshold,
                          uint32_t, PairSink* sink, OpCounters* ops) {
    JoinTimeSeriesWindows(x, y, xr, yr, options, threshold, sink, ops);
  }

  /// EGO's feature file: PaaTransform of every window, L filter checks
  /// each.
  static void MaterializeWindows(std::span<const Symbol> values,
                                 uint32_t feature_dims, uint32_t window_len,
                                 std::vector<float>* out, OpCounters* ops);

  static double CellWidth(double feature_threshold) {
    return feature_threshold;
  }

  /// Exact check of one window pair: L2 <= ε (early exit, L distance terms
  /// charged).
  static bool WindowsMatch(std::span<const Symbol> x, std::span<const Symbol> y,
                           Threshold threshold, OpCounters* ops);
};

/// A sequence laid out for subsequence joins: the symbol array, one
/// feature MBR per page, the per-page sub-box and coarse-box MBRs of the
/// multi-resolution index, and the page tree over the page MBRs.
template <typename Kind>
class SequenceStore {
 public:
  using Symbol = typename Kind::Symbol;

  /// Builds the store, registers a `layout().NumPages()`-page file on
  /// `disk`, computes the window-feature MBRs and bulk-loads the page
  /// tree, whose node file `<name>.idx` is registered on `disk` too.
  ///
  /// `feature_dims` is the alphabet size of a string or the PAA dimension
  /// f of a time series (f must divide `window_len`, L).
  /// `page_size_bytes` / sizeof(Symbol) is the page capacity in symbols;
  /// the net block is C = capacity − (L − 1) to account for the
  /// replicated tail. Fails if C would be <= 0, the sequence is shorter
  /// than L, or a symbol is invalid for the kind.
  /// `sub_box_windows` sets the fine summary granularity T, in [1, 2^30)
  /// (the coarse level is fixed at 4·T); the default matches the benches.
  static Result<SequenceStore> Build(StorageBackend* disk,
                                     std::string_view name,
                                     std::vector<Symbol> symbols,
                                     uint32_t feature_dims, uint32_t window_len,
                                     uint32_t page_size_bytes,
                                     uint32_t sub_box_windows = 64);

  /// Writes each page's symbol slice (block plus replicated tail) to the
  /// store's backend file and a `<name>.meta` sidecar holding the build
  /// parameters. Build charges no payload writes; persisting is a
  /// separate, explicitly-charged step.
  Status Persist(StorageBackend* disk) const;

  /// Restores a store persisted as `name`: re-stitches the symbol array
  /// from the page slices and reruns the deterministic summary and tree
  /// build, so the result is bit-identical to the original. A sidecar
  /// field or page value that Build would reject is Corruption.
  static Result<SequenceStore> Open(StorageBackend* disk,
                                    std::string_view name);

  const SequenceLayout& layout() const { return layout_; }
  uint32_t file_id() const { return file_id_; }
  uint32_t feature_dims() const { return feature_dims_; }

  /// The whole symbol array (window w = symbols()[w .. w+L)).
  std::span<const Symbol> symbols() const { return symbols_; }

  /// Feature MBR (dims = feature_dims()) of page p's windows.
  const Mbr& PageMbr(uint32_t page) const { return page_mbrs_[page]; }
  const std::vector<Mbr>& page_mbrs() const { return page_mbrs_; }

  /// Feature MBR of sub-box `b` of page `page` (covers the windows given
  /// by layout().SubBoxFirstWindow/SubBoxWindowCount).
  const Mbr& SubBoxMbr(uint32_t page, uint32_t b) const {
    return sub_mbrs_[sub_offsets_[page] + b];
  }

  /// Feature MBR of coarse box `cb` of page `page` (union of its fine
  /// sub-boxes).
  const Mbr& CoarseBoxMbr(uint32_t page, uint32_t cb) const {
    return coarse_mbrs_[coarse_offsets_[page] + cb];
  }

  /// STR-packed tree over the page MBRs (leaf entry ids are page
  /// indices), with its node file attached so BFRJ can charge node I/O.
  /// The prediction matrix and BFRJ walk it.
  const RStarTree& tree() const { return tree_; }

  /// Lower bound on the raw distance between any window of page `p` and
  /// any window of page `q` of `other`: Kind::FeatureScale times the
  /// page MBRs' MINDIST under Kind::kNorm (L1/2 for strings, sqrt(L/f) ·
  /// L2 for series). This drives the prediction-matrix marking.
  double PageLowerBound(uint32_t p, const SequenceStore& other,
                        uint32_t q) const;

 private:
  SequenceStore() = default;

  /// Everything Build does except registering the backend files.
  static Result<SequenceStore> Assemble(std::vector<Symbol> symbols,
                                        uint32_t feature_dims,
                                        uint32_t window_len,
                                        uint32_t page_size_bytes,
                                        uint32_t sub_box_windows);

  SequenceLayout layout_;
  uint32_t file_id_ = 0;
  uint32_t feature_dims_ = 0;
  std::vector<Symbol> symbols_;
  std::vector<Mbr> page_mbrs_;
  /// Sub-box MBRs, flat; page p's boxes start at sub_offsets_[p].
  std::vector<Mbr> sub_mbrs_;
  std::vector<uint32_t> sub_offsets_;
  /// Coarse-box MBRs (unions of fine boxes), same layout scheme.
  std::vector<Mbr> coarse_mbrs_;
  std::vector<uint32_t> coarse_offsets_;
  RStarTree tree_{1};
};

/// A string (e.g. genome) laid out for subsequence joins.
using StringSequenceStore = SequenceStore<StringKind>;
/// A time series laid out for subsequence joins.
using TimeSeriesStore = SequenceStore<SeriesKind>;

}  // namespace pmjoin

#endif  // PMJOIN_SEQ_SEQUENCE_STORE_H_
