#include "baselines/ego.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "geom/distance_kernels.h"
#include "io/external_sort.h"

namespace pmjoin {
namespace {

/// One side of the EGO sweep: feature points in ε-grid lexicographic
/// order, laid out on a (sorted-copy) file.
struct EgoSide {
  /// Feature values in sorted order, row-major (count × dims).
  std::vector<float> features;
  /// features row i corresponds to original position `positions[i]`
  /// (record original id, or window start).
  std::vector<uint64_t> positions;
  /// First-dimension cell id per sorted row.
  std::vector<int64_t> cell0;
  size_t dims = 0;
  /// Sorted-copy file on disk.
  uint32_t file = 0;
  uint32_t records_per_page = 0;
  uint32_t num_pages = 0;

  uint64_t count() const { return positions.size(); }
  std::span<const float> Row(uint64_t i) const {
    return std::span<const float>(features.data() + i * dims, dims);
  }
  uint32_t PageOf(uint64_t i) const {
    return static_cast<uint32_t>(i / records_per_page);
  }
};

int64_t CellOf(float v, double width) {
  return static_cast<int64_t>(std::floor(double(v) / width));
}

/// Sorts `features` (with `positions` parallel) into ε-grid lexicographic
/// order and registers the sorted copy on disk (charging the copy write).
Status BuildEgoSide(StorageBackend* disk, std::string_view name,
                    std::vector<float> features,
                    std::vector<uint64_t> positions, size_t dims,
                    double cell_width, uint32_t page_size_bytes,
                    uint32_t buffer, OpCounters* ops, EgoSide* out) {
  const uint64_t n = positions.size();
  std::vector<uint32_t> order(n);
  for (uint64_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const float* pa = features.data() + size_t(a) * dims;
    const float* pb = features.data() + size_t(b) * dims;
    for (size_t d = 0; d < dims; ++d) {
      const int64_t ca = CellOf(pa[d], cell_width);
      const int64_t cb = CellOf(pb[d], cell_width);
      if (ca != cb) return ca < cb;
    }
    return positions[a] < positions[b];
  });
  if (ops != nullptr && n > 1) {
    // CPU cost of the reordering (n log n key comparisons of `dims` cells).
    ops->filter_checks += static_cast<uint64_t>(
        double(n) * std::log2(double(n)) * dims);
  }

  out->dims = dims;
  out->features.resize(features.size());
  out->positions.resize(n);
  out->cell0.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t src = order[i];
    std::copy_n(features.data() + size_t(src) * dims, dims,
                out->features.data() + i * dims);
    out->positions[i] = positions[src];
    out->cell0[i] = CellOf(out->features[i * dims], cell_width);
  }
  out->records_per_page = std::max<uint32_t>(
      1, page_size_bytes / (static_cast<uint32_t>(dims) * sizeof(float)));
  out->num_pages = static_cast<uint32_t>(
      (n + out->records_per_page - 1) / out->records_per_page);
  out->file = disk->CreateFile(name, out->num_pages);
  // The reorder itself is the external sort.
  PMJOIN_RETURN_IF_ERROR(
      ChargeExternalSort(disk, out->num_pages, buffer));
  return Status::OK();
}

/// The EGO sweep: for every pair whose cells differ by at most 1 in every
/// dimension *and* whose feature distance is within `threshold`, invokes
/// `emit(pos_r, pos_s)`; the first error `emit` returns ends the sweep.
/// I/O flows through `pool` (R sequential, S via the first-dimension band
/// window; a band wider than the buffer thrashes, which is EGO's failure
/// mode at small buffers). Every pin is released on every path.
Status EgoSweep(const EgoSide& r, const EgoSide& s, double cell_width,
                Norm norm, double threshold, BufferPool* pool,
                OpCounters* ops,
                const std::function<Status(uint64_t, uint64_t)>& emit) {
  if (r.count() == 0 || s.count() == 0) return Status::OK();
  // Joins R rows [a, b) with S rows [sa, sb) of one pinned page pair.
  const auto join_rows = [&](uint64_t a, uint64_t b, uint64_t sa,
                             uint64_t sb) -> Status {
    for (uint64_t i = a; i < b; ++i) {
      const std::span<const float> x = r.Row(i);
      for (uint64_t j = sa; j < sb; ++j) {
        // Cell band test, dimension by dimension.
        bool band = true;
        const std::span<const float> y = s.Row(j);
        for (size_t d = 0; d < r.dims; ++d) {
          if (ops != nullptr) ++ops->filter_checks;
          const int64_t cd =
              CellOf(x[d], cell_width) - CellOf(y[d], cell_width);
          if (cd < -1 || cd > 1) {
            band = false;
            break;
          }
        }
        if (!band) continue;
        if (ops != nullptr) ops->distance_terms += r.dims;
        if (kernels::WithinOne(x.data(), y.data(), r.dims, norm,
                               threshold)) {
          PMJOIN_RETURN_IF_ERROR(emit(r.positions[i], s.positions[j]));
        }
      }
    }
    return Status::OK();
  };
  for (uint32_t rp = 0; rp < r.num_pages; ++rp) {
    const PageId r_pid{r.file, rp};
    PMJOIN_RETURN_IF_ERROR(pool->Pin(r_pid));
    const uint64_t a = uint64_t(rp) * r.records_per_page;
    const uint64_t b = std::min<uint64_t>(a + r.records_per_page, r.count());
    // Page-level band over S from this page's cell0 range.
    const int64_t lo_cell = r.cell0[a] - 1;
    const int64_t hi_cell = r.cell0[b - 1] + 1;
    const uint64_t s_lo =
        std::lower_bound(s.cell0.begin(), s.cell0.end(), lo_cell) -
        s.cell0.begin();
    const uint64_t s_hi =
        std::upper_bound(s.cell0.begin(), s.cell0.end(), hi_cell) -
        s.cell0.begin();
    Status st;
    for (uint32_t sp = s.PageOf(s_lo); s_lo < s_hi && sp <= s.PageOf(s_hi - 1);
         ++sp) {
      const PageId s_pid{s.file, sp};
      st = pool->Pin(s_pid);
      if (!st.ok()) break;
      st = join_rows(
          a, b, std::max<uint64_t>(s_lo, uint64_t(sp) * s.records_per_page),
          std::min<uint64_t>(s_hi, uint64_t(sp + 1) * s.records_per_page));
      pool->Unpin(s_pid);
      if (!st.ok()) break;
    }
    pool->Unpin(r_pid);
    PMJOIN_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

}  // namespace

Status EgoJoinVectors(const VectorDataset& r, const VectorDataset& s,
                      bool self_join, double eps, Norm norm,
                      uint32_t page_size_bytes, StorageBackend* disk,
                      BufferPool* pool, PairSink* sink, OpCounters* ops) {
  if (self_join && &r != &s)
    return Status::InvalidArgument("self_join requires identical datasets");
  // Extract features (the records themselves) by scanning the base files.
  auto extract = [&](const VectorDataset& ds, std::string_view name,
                     EgoSide* side) -> Status {
    PMJOIN_RETURN_IF_ERROR(disk->ScanFile(ds.file_id()));
    std::vector<float> features;
    std::vector<uint64_t> positions;
    features.reserve(ds.num_records() * ds.dims());
    positions.reserve(ds.num_records());
    for (uint32_t p = 0; p < ds.num_pages(); ++p) {
      for (uint32_t slot = 0; slot < ds.PageRecordCount(p); ++slot) {
        const std::span<const float> rec = ds.Record(p, slot);
        features.insert(features.end(), rec.begin(), rec.end());
        positions.push_back(ds.OriginalId(p, slot));
      }
    }
    return BuildEgoSide(disk, name, std::move(features),
                        std::move(positions), ds.dims(), eps, page_size_bytes,
                        pool->capacity(), ops, side);
  };

  EgoSide er;
  PMJOIN_RETURN_IF_ERROR(extract(r, "ego-r", &er));
  EgoSide es;
  if (!self_join) {
    PMJOIN_RETURN_IF_ERROR(extract(s, "ego-s", &es));
  }
  const EgoSide& sref = self_join ? er : es;

  return EgoSweep(er, sref, eps, norm, eps, pool, ops,
                  [&](uint64_t a, uint64_t b) {
                    if (self_join && a >= b) return Status::OK();
                    sink->OnPair(a, b);
                    if (ops != nullptr) ++ops->result_pairs;
                    return Status::OK();
                  });
}

template <typename Kind>
Status EgoJoinSequence(const SequenceStore<Kind>& r,
                       const SequenceStore<Kind>& s, bool self_join,
                       typename Kind::Threshold threshold,
                       uint32_t page_size_bytes, StorageBackend* disk,
                       BufferPool* pool, PairSink* sink, OpCounters* ops) {
  if (self_join && &r != &s)
    return Status::InvalidArgument("self_join requires identical stores");
  const uint32_t L = r.layout().window_len;
  const uint32_t dims = r.feature_dims();
  const double feature_threshold = threshold / Kind::FeatureScale(L, dims);
  const double cell_width = Kind::CellWidth(feature_threshold);

  // A sequence cannot be reordered in place (§3): scan the original file,
  // materialize one feature row per window and sort that copy.
  auto build_side = [&](const SequenceStore<Kind>& store,
                        std::string_view name, EgoSide* side) -> Status {
    std::vector<float> features;
    Kind::MaterializeWindows(store.symbols(), dims, L, &features, ops);
    std::vector<uint64_t> positions(store.layout().NumWindows());
    std::iota(positions.begin(), positions.end(), uint64_t{0});
    PMJOIN_RETURN_IF_ERROR(disk->ScanFile(store.file_id()));
    return BuildEgoSide(disk, name, std::move(features),
                        std::move(positions), dims, cell_width,
                        page_size_bytes, pool->capacity(), ops, side);
  };
  EgoSide er;
  PMJOIN_RETURN_IF_ERROR(build_side(r, "ego-seq-r", &er));
  EgoSide es;
  if (!self_join) PMJOIN_RETURN_IF_ERROR(build_side(s, "ego-seq-s", &es));

  // Verify each candidate against the original pages holding the two
  // windows (random reads).
  auto verify = [&](uint64_t wx, uint64_t wy) -> Status {
    if (self_join && wx + L > wy) return Status::OK();
    const PageId px{r.file_id(), r.layout().PageOfWindow(wx)};
    const PageId py{s.file_id(), s.layout().PageOfWindow(wy)};
    PMJOIN_RETURN_IF_ERROR(pool->Pin(px));
    const Status st = pool->Pin(py);
    if (st.ok()) {
      if (Kind::WindowsMatch(r.symbols().subspan(wx, L),
                             s.symbols().subspan(wy, L), threshold, ops)) {
        sink->OnPair(wx, wy);
        if (ops != nullptr) ++ops->result_pairs;
      }
      pool->Unpin(py);
    }
    pool->Unpin(px);
    return st;
  };
  return EgoSweep(er, self_join ? er : es, cell_width, Kind::kNorm,
                  feature_threshold, pool, ops, verify);
}

template Status EgoJoinSequence<StringKind>(
    const StringSequenceStore&, const StringSequenceStore&, bool, uint32_t,
    uint32_t, StorageBackend*, BufferPool*, PairSink*, OpCounters*);
template Status EgoJoinSequence<SeriesKind>(
    const TimeSeriesStore&, const TimeSeriesStore&, bool, double, uint32_t,
    StorageBackend*, BufferPool*, PairSink*, OpCounters*);

}  // namespace pmjoin
